module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate
module Library = Ser_cell.Library

type t = {
  loads : float array;
  input_ramp : float array;
  delays : float array;
  ramps : float array;
  arrival : float array;
  required : float array;
  slack : float array;
  critical_delay : float;
}

type env = { po_cap : float; pi_ramp : float }

let default_env = { po_cap = 1.0; pi_ramp = 20. }

let po_mask (c : Circuit.t) =
  let m = Array.make (Circuit.node_count c) false in
  Array.iter (fun po -> m.(po) <- true) c.outputs;
  m

(* For a fixed net the readers' pins are summed in [fanout] order
   (ascending reader id, once per pin) and the latch pin comes last, so
   recomputing one net reproduces the whole-circuit pass bit for bit.
   Here and in [eval_gate], [for] loops rather than [Array.iter]
   closures keep the float accumulators unboxed. *)
let net_load ~env lib ~is_po ~cell (nd : Circuit.node) =
  let acc = ref 0. in
  for k = 0 to Array.length nd.fanout - 1 do
    acc := !acc +. Library.input_cap lib (cell nd.fanout.(k))
  done;
  if is_po.(nd.id) then acc := !acc +. env.po_cap;
  !acc

let eval_gate ~env model (nd : Circuit.node) ~loads ~input_ramp ~delays
    ~ramps ~arrival =
  let id = nd.id in
  let worst_ramp = ref env.pi_ramp in
  let worst_arrival = ref 0. in
  for k = 0 to Array.length nd.fanin - 1 do
    let f = nd.fanin.(k) in
    if ramps.(f) > !worst_ramp then worst_ramp := ramps.(f);
    if arrival.(f) > !worst_arrival then worst_arrival := arrival.(f)
  done;
  let d, r =
    Library.eval_timing model ~input_ramp:!worst_ramp ~cload:loads.(id)
  in
  input_ramp.(id) <- !worst_ramp;
  delays.(id) <- d;
  ramps.(id) <- r;
  arrival.(id) <- !worst_arrival +. d

let critical_of (c : Circuit.t) arrival =
  Array.fold_left (fun acc po -> Float.max acc arrival.(po)) 0. c.outputs

let of_arrays (c : Circuit.t) ~loads ~input_ramp ~delays ~ramps ~arrival =
  let n = Circuit.node_count c in
  let critical_delay = critical_of c arrival in
  let required = Array.make n Float.max_float in
  Array.iter (fun po -> required.(po) <- critical_delay) c.outputs;
  for id = n - 1 downto 0 do
    let nd = c.nodes.(id) in
    Array.iter
      (fun reader ->
        let r = required.(reader) -. delays.(reader) in
        if r < required.(id) then required.(id) <- r)
      nd.fanout
  done;
  let slack = Array.init n (fun id -> required.(id) -. arrival.(id)) in
  { loads; input_ramp; delays; ramps; arrival; required; slack; critical_delay }

let analyze ?(env = default_env) lib asg =
  let c = Assignment.circuit asg in
  let n = Circuit.node_count c in
  let is_po = po_mask c in
  let cell = Assignment.get asg in
  let loads = Array.map (net_load ~env lib ~is_po ~cell) c.nodes in
  let input_ramp = Array.make n env.pi_ramp in
  let delays = Array.make n 0. in
  let ramps = Array.make n env.pi_ramp in
  let arrival = Array.make n 0. in
  Array.iter
    (fun (nd : Circuit.node) ->
      if nd.kind <> Gate.Input then
        eval_gate ~env
          (Library.timing_model lib (cell nd.id))
          nd ~loads ~input_ramp ~delays ~ramps ~arrival)
    c.nodes;
  of_arrays c ~loads ~input_ramp ~delays ~ramps ~arrival

(* start at the worst primary output, walk back along worst arrivals *)
let worst_path (c : Circuit.t) arrival =
  let po =
    Array.fold_left
      (fun best po ->
        match best with
        | None -> Some po
        | Some b -> if arrival.(po) > arrival.(b) then Some po else best)
      None c.outputs
    |> Option.get
  in
  let rec walk acc id =
    let nd = Circuit.node c id in
    if nd.kind = Gate.Input then id :: acc
    else begin
      let worst =
        Array.fold_left
          (fun best f ->
            match best with
            | None -> Some f
            | Some b -> if arrival.(f) > arrival.(b) then Some f else best)
          None nd.fanin
        |> Option.get
      in
      walk (id :: acc) worst
    end
  in
  Array.of_list (walk [] po)

let critical_path asg timing =
  worst_path (Assignment.circuit asg) timing.arrival

let total_energy ?(env = default_env) ?clock ?(activity = 0.2) ?timing lib asg =
  let timing = match timing with Some t -> t | None -> analyze ~env lib asg in
  let clock = match clock with Some t -> t | None -> 1.2 *. timing.critical_delay in
  Assignment.fold_gates asg ~init:0. ~f:(fun acc id p ->
      let dyn = Library.switching_energy lib p ~cload:timing.loads.(id) in
      let leak = Library.leakage_power lib p *. clock in
      acc +. (activity *. dyn) +. leak)
