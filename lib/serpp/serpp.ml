module Circuit = Ser_netlist.Circuit
module Probs = Ser_logicsim.Probs
module Library = Ser_cell.Library
module Assignment = Ser_sta.Assignment
module Timing = Ser_sta.Timing
module Lut = Ser_table.Lut
module Analysis = Aserta.Analysis
module Obs = Ser_obs.Obs

let m_analyses = Obs.Metrics.counter "serpp.analyses"
let m_gate_evals = Obs.Metrics.counter "serpp.gate_evals"

type config = {
  charge : float;
  n_samples : int;
  max_sample_width : float;
  latch_window : float option;
  pi_probs : float array option;
  env : Timing.env;
}

let default_config =
  {
    charge = 16.;
    n_samples = 10;
    max_sample_width = 800.;
    latch_window = None;
    pi_probs = None;
    env = Timing.default_env;
  }

(* The assignment-independent part of a pass, built once per (circuit,
   config). *)
type context = {
  probs : float array;
  grid : float array;
  is_po : bool array;
  succs : int array array;
  sens : float array array;
  profile_cap : float;
  latch_row : float array;
}

type t = {
  config : config;
  circuit : Circuit.t;
  timing : Timing.t;
  profiles : float array array;
  areas : float array;
  gen_width : float array;
  propagated : float array;
  estimate : float array;
  total : float;
  context : context;
}

let sample_widths config =
  if config.n_samples < 2 then invalid_arg "Serpp.sample_widths: need >= 2";
  Ser_util.Floatx.logspace 2. config.max_sample_width config.n_samples

(* Unique successor ids, in successor-name order. Fanout lists one
   entry per pin and its order follows gate declaration; names are
   stable under re-declaration, so summing contributions name-sorted
   keeps the profile independent of the input file's gate order. *)
let successors_by_name (c : Circuit.t) id =
  let nd = Circuit.node c id in
  let seen = Hashtbl.create 4 in
  let out = ref [] in
  Array.iter
    (fun r ->
      if not (Hashtbl.mem seen r) then begin
        Hashtbl.replace seen r ();
        out := r :: !out
      end)
    nd.fanout;
  List.sort
    (fun a b ->
      String.compare (Circuit.node c a).Circuit.name
        (Circuit.node c b).Circuit.name)
    !out

let latch_cap config =
  match config.latch_window with
  | None -> config.max_sample_width
  | Some w -> Float.min w config.max_sample_width

let context config (c : Circuit.t) =
  let n = Circuit.node_count c in
  let probs = Probs.signal_probabilities ?pi_probs:config.pi_probs c in
  let is_po = Timing.po_mask c in
  let succs = Array.make n [||] and sens = Array.make n [||] in
  for id = 0 to n - 1 do
    if not (Circuit.is_input c id || is_po.(id)) then begin
      let live =
        List.filter_map
          (fun s ->
            let v = Probs.sensitization_to_driver c ~probs ~gate:s ~driver:id in
            if v > 0. then Some (s, v) else None)
          (successors_by_name c id)
      in
      succs.(id) <- Array.of_list (List.map fst live);
      sens.(id) <- Array.of_list (List.map snd live)
    end
  done;
  let grid = sample_widths config in
  let latch = latch_cap config in
  {
    probs;
    grid;
    is_po;
    succs;
    sens;
    profile_cap = float_of_int (Array.length c.outputs) *. latch;
    latch_row = Array.map (fun w -> Float.min w latch) grid;
  }

let profile_row cx ~brackets ~profiles id =
  let n_samples = Array.length cx.grid in
  let row = Array.make n_samples 0. in
  let succs = cx.succs.(id) and sens = cx.sens.(id) in
  for si = 0 to Array.length succs - 1 do
    let s = succs.(si) in
    let w = sens.(si) in
    let s_prof = profiles.(s) in
    let lo, fr = brackets.(s) in
    (* the lerp written out, as in [Analysis.ws_table]: a call across
       modules would box every float *)
    for k = 0 to n_samples - 1 do
      let b = Array.unsafe_get lo k in
      if b >= 0 then begin
        let y0 = Array.unsafe_get s_prof b in
        let y1 = Array.unsafe_get s_prof (b + 1) in
        let v = y0 +. (Array.unsafe_get fr k *. (y1 -. y0)) in
        Array.unsafe_set row k (Array.unsafe_get row k +. (w *. v))
      end
    done
  done;
  (* saturate: reconvergent fan-out counts a path family more than
     once, and without the cap the over-count could compound level by
     level *)
  for k = 0 to n_samples - 1 do
    if row.(k) > cx.profile_cap then row.(k) <- cx.profile_cap
  done;
  row

let gen_width cx lib ~charge cell ~load id =
  let node_cap = load +. Library.output_cap lib cell in
  let w_low =
    Library.generated_glitch_width lib cell ~node_cap ~charge ~output_low:true
  in
  let w_high =
    Library.generated_glitch_width lib cell ~node_cap ~charge ~output_low:false
  in
  let p1 = cx.probs.(id) in
  ((1. -. p1) *. w_low) +. (p1 *. w_high)

let gate_estimate cx ~profile ~gen_width ~area =
  let prop = Lut.interpolate_1d ~xs:cx.grid ~ys:profile gen_width in
  (prop, area *. prop)

let run ?(config = default_config) lib asg =
  let c = Assignment.circuit asg in
  let n = Circuit.node_count c in
  Obs.Metrics.incr m_analyses;
  let timing =
    Obs.Trace.with_span "serpp.sta" (fun () ->
        Timing.analyze ~env:config.env lib asg)
  in
  let cx = Obs.Trace.with_span "serpp.context" (fun () -> context config c) in
  let profiles = Array.make n [||] in
  (* one reverse-topological pass: descending ids visit every gate
     after all of its successors (the builder assigns ids in creation
     order, so a reader always has a larger id than its drivers) *)
  let prof_sp = Obs.Trace.start "serpp.profiles" in
  let brackets = Array.make n ([||], [||]) in
  for id = n - 1 downto 0 do
    if not (Circuit.is_input c id) then begin
      brackets.(id) <-
        Analysis.ws_brackets cx.grid ~delay:timing.Timing.delays.(id);
      (* the flip-flop boundary: a PO gate's glitch goes straight to
         its own latch (and, as in ASERTA, to no other output), derated
         by the latching window when one is configured *)
      profiles.(id) <-
        (if cx.is_po.(id) then cx.latch_row
         else profile_row cx ~brackets ~profiles id)
    end
  done;
  Obs.Trace.finish prof_sp;
  let areas = Array.make n 0. in
  let gen_widths = Array.make n 0. in
  let propagated = Array.make n 0. in
  let estimate = Array.make n 0. in
  let est_sp = Obs.Trace.start "serpp.estimate" in
  let gate_evals = ref 0 in
  for id = 0 to n - 1 do
    if not (Circuit.is_input c id) then begin
      incr gate_evals;
      let cell = Assignment.get asg id in
      let wi =
        gen_width cx lib ~charge:config.charge cell
          ~load:timing.Timing.loads.(id) id
      in
      let area = Library.area lib cell in
      let prop, u =
        gate_estimate cx ~profile:profiles.(id) ~gen_width:wi ~area
      in
      gen_widths.(id) <- wi;
      propagated.(id) <- prop;
      areas.(id) <- area;
      estimate.(id) <- u
    end
  done;
  Obs.Metrics.add m_gate_evals !gate_evals;
  Obs.Trace.finish est_sp;
  let total = ref 0. in
  Array.iter (fun u -> total := !total +. u) estimate;
  {
    config;
    circuit = c;
    timing;
    profiles;
    areas;
    gen_width = gen_widths;
    propagated;
    estimate;
    total = !total;
    context = cx;
  }

let gate_bound t id =
  if Circuit.is_input t.circuit id then 0.
  else t.areas.(id) *. t.context.profile_cap

let fail fmt = Ser_util.Diag.fail ~subsystem:"serpp" fmt

let run_checked ?(config = default_config) lib asg =
  Ser_util.Diag.guard ~subsystem:"serpp" (fun () ->
      if (not (Float.is_finite config.charge)) || config.charge <= 0. then
        fail "config.charge must be finite and positive (got %g)" config.charge;
      if config.n_samples < 2 then
        fail "config.n_samples must be >= 2 (got %d)" config.n_samples;
      if
        (not (Float.is_finite config.max_sample_width))
        || config.max_sample_width <= 0.
      then
        fail "config.max_sample_width must be finite and positive (got %g)"
          config.max_sample_width;
      (match config.latch_window with
      | Some w when (not (Float.is_finite w)) || w <= 0. ->
        fail "config.latch_window must be finite and positive (got %g)" w
      | _ -> ());
      let t = run ~config lib asg in
      let c = Assignment.circuit asg in
      let estimate =
        Array.mapi
          (fun id u ->
            if not (Float.is_finite u) then
              Ser_util.Diag.fail ~subsystem:"serpp"
                ~context:[ Ser_util.Diag.gate (Circuit.node c id).Circuit.name ]
                "non-finite per-gate estimate"
            else if u < -1e-9 then
              Ser_util.Diag.fail ~subsystem:"serpp"
                ~context:[ Ser_util.Diag.gate (Circuit.node c id).Circuit.name ]
                "negative per-gate estimate %g" u
            else Float.max 0. u)
          t.estimate
      in
      let total = Array.fold_left ( +. ) 0. estimate in
      if not (Float.is_finite total) then fail "non-finite total estimate";
      { t with estimate; total })
