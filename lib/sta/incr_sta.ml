module Circuit = Ser_netlist.Circuit
module Cell_params = Ser_device.Cell_params

let same_bits = Ser_util.Floatx.same_bits

type t = {
  lib : Ser_cell.Library.t;
  env : Timing.env;
  circuit : Circuit.t;
  is_po : bool array; (* immutable, shared by forks *)
  asg : Assignment.t;
  models : Ser_cell.Library.timing_model option array;
      (* per gate, the characterisation of its current cell *)
  loads : float array;
  input_ramp : float array;
  delays : float array;
  ramps : float array;
  arrival : float array;
  mutable critical_delay : float;
  (* undo log of the open trial: a node's five values are saved before
     each overwrite (slot k at [log_vals.(5k)]) and restored newest
     first, so a node saved twice ends on its oldest values; the
     replaced cells and models, newest first; the critical delay before
     the trial. The arrays grow on demand, so a fork that is updated
     once and dropped allocates only what its cone needs. *)
  mutable log_ids : int array;
  mutable log_vals : float array;
  mutable log_len : int;
  mutable log_cells :
    (int * Cell_params.t * Ser_cell.Library.timing_model option) list;
  mutable log_critical : float;
  (* per node: what the latest propagation changed ([load_bit],
     [delay_bit], for layered engines) and the propagation's own
     [dirty_bit], clear between propagations *)
  flags : Bytes.t;
  mutable gate_evals : int;
  mutable cutoffs : int;
}

let load_bit = 1
let delay_bit = 2
let dirty_bit = 4
let has t id bit = Char.code (Bytes.unsafe_get t.flags id) land bit <> 0

let set t id bit =
  Bytes.unsafe_set t.flags id
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.flags id) lor bit))

let clear_dirty t id =
  Bytes.unsafe_set t.flags id
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.flags id) land lnot dirty_bit))

let of_timing ?(env = Timing.default_env) lib asg (tm : Timing.t) =
  let c = Assignment.circuit asg in
  let n = Circuit.node_count c in
  {
    lib;
    env;
    circuit = c;
    is_po = Timing.po_mask c;
    asg = Assignment.copy asg;
    models =
      Array.init n (fun id ->
          if Circuit.is_input c id then None
          else Some (Ser_cell.Library.timing_model lib (Assignment.get asg id)));
    loads = Array.copy tm.Timing.loads;
    input_ramp = Array.copy tm.Timing.input_ramp;
    delays = Array.copy tm.Timing.delays;
    ramps = Array.copy tm.Timing.ramps;
    arrival = Array.copy tm.Timing.arrival;
    critical_delay = tm.Timing.critical_delay;
    log_ids = [||];
    log_vals = [||];
    log_len = 0;
    log_cells = [];
    log_critical = tm.Timing.critical_delay;
    flags = Bytes.make n '\000';
    gate_evals = 0;
    cutoffs = 0;
  }

let create ?(env = Timing.default_env) lib asg =
  of_timing ~env lib asg (Timing.analyze ~env lib asg)

(* every trial that touched anything wrote at least one cell *)
let in_trial t = t.log_cells <> []

let fork t =
  if in_trial t then invalid_arg "Incr_sta.fork: open trial";
  {
    t with
    asg = Assignment.copy t.asg;
    models = Array.copy t.models;
    loads = Array.copy t.loads;
    input_ramp = Array.copy t.input_ramp;
    delays = Array.copy t.delays;
    ramps = Array.copy t.ramps;
    arrival = Array.copy t.arrival;
    log_ids = [||];
    log_vals = [||];
    flags = Bytes.copy t.flags;
    gate_evals = 0;
    cutoffs = 0;
  }

let save t id =
  let k = t.log_len in
  if k = Array.length t.log_ids then begin
    let cap = max 32 (2 * k) in
    let ids = Array.make cap 0 and vals = Array.make (5 * cap) 0. in
    Array.blit t.log_ids 0 ids 0 k;
    Array.blit t.log_vals 0 vals 0 (5 * k);
    t.log_ids <- ids;
    t.log_vals <- vals
  end;
  t.log_ids.(k) <- id;
  let v = 5 * k in
  t.log_vals.(v) <- t.loads.(id);
  t.log_vals.(v + 1) <- t.input_ramp.(id);
  t.log_vals.(v + 2) <- t.delays.(id);
  t.log_vals.(v + 3) <- t.ramps.(id);
  t.log_vals.(v + 4) <- t.arrival.(id);
  t.log_len <- k + 1

let clear_changes t = Bytes.fill t.flags 0 (Bytes.length t.flags) '\000'

let try_cells t changes =
  let c = t.circuit in
  List.iter
    (fun (g, (cell : Cell_params.t)) ->
      let cur = Assignment.get t.asg g in
      if cell.kind <> cur.kind || cell.fanin <> cur.fanin then
        invalid_arg "Incr_sta.try_cells: cell does not match gate")
    changes;
  clear_changes t;
  (* 1. cell writes in list order, skipping any that would not change
     the gate; the written gates and their fan-in nets go dirty. All
     writes land before any load is recomputed: two changed gates may
     share a net. *)
  let lo = ref max_int in
  let nets = ref [] in
  List.iter
    (fun (g, cell) ->
      let cur = Assignment.get t.asg g in
      if not (Cell_params.equal cur cell) then begin
        if not (in_trial t) then t.log_critical <- t.critical_delay;
        t.log_cells <- (g, cur, t.models.(g)) :: t.log_cells;
        Assignment.set t.asg g cell;
        t.models.(g) <- Some (Ser_cell.Library.timing_model t.lib cell);
        set t g dirty_bit;
        if g < !lo then lo := g;
        nets := (Circuit.node c g).Circuit.fanin :: !nets
      end)
    changes;
  if !nets <> [] then begin
    (* 2. loads of the touched nets *)
    let cell = Assignment.get t.asg in
    List.iter
      (Array.iter (fun f ->
           let l =
             Timing.net_load ~env:t.env t.lib ~is_po:t.is_po ~cell
               (Circuit.node c f)
           in
           if not (same_bits l t.loads.(f)) then begin
             save t f;
             t.loads.(f) <- l;
             set t f load_bit;
             if not (Circuit.is_input c f) then begin
               set t f dirty_bit;
               if f < !lo then lo := f
             end
           end))
      !nets;
    (* 3. forward over the fanout cone in ascending (topological) id
       order; a gate whose output ramp and arrival are bit-unchanged
       does not dirty its readers *)
    for id = !lo to Array.length t.loads - 1 do
      if has t id dirty_bit then begin
        clear_dirty t id;
        t.gate_evals <- t.gate_evals + 1;
        let nd = Circuit.node c id in
        let d0 = t.delays.(id) and r0 = t.ramps.(id) and a0 = t.arrival.(id) in
        save t id;
        let model =
          match t.models.(id) with Some m -> m | None -> assert false
        in
        Timing.eval_gate ~env:t.env model nd ~loads:t.loads
          ~input_ramp:t.input_ramp ~delays:t.delays ~ramps:t.ramps
          ~arrival:t.arrival;
        if not (same_bits t.delays.(id) d0) then set t id delay_bit;
        if same_bits t.ramps.(id) r0 && same_bits t.arrival.(id) a0 then
          t.cutoffs <- t.cutoffs + 1
        else
          Array.iter (fun r -> set t r dirty_bit) nd.Circuit.fanout
      end
    done;
    t.critical_delay <- Timing.critical_of c t.arrival
  end

let try_cell t g cell = try_cells t [ (g, cell) ]

let reset_log t =
  t.log_len <- 0;
  t.log_cells <- []

let commit t = reset_log t

let revert t =
  for k = t.log_len - 1 downto 0 do
    let id = t.log_ids.(k) and v = 5 * k in
    t.loads.(id) <- t.log_vals.(v);
    t.input_ramp.(id) <- t.log_vals.(v + 1);
    t.delays.(id) <- t.log_vals.(v + 2);
    t.ramps.(id) <- t.log_vals.(v + 3);
    t.arrival.(id) <- t.log_vals.(v + 4)
  done;
  (* newest first, so a gate changed twice ends on its oldest cell *)
  List.iter
    (fun (g, old, model) ->
      Assignment.set t.asg g old;
      t.models.(g) <- model)
    t.log_cells;
  if in_trial t then t.critical_delay <- t.log_critical;
  reset_log t;
  clear_changes t

let cell t id = Assignment.get t.asg id
let assignment t = Assignment.copy t.asg
let critical_delay t = t.critical_delay
let critical_path t = Timing.worst_path t.circuit t.arrival
let load t id = t.loads.(id)
let delay t id = t.delays.(id)
let load_changed t id = has t id load_bit
let delay_changed t id = has t id delay_bit
let gate_evals t = t.gate_evals
let cutoffs t = t.cutoffs

let timing t =
  Timing.of_arrays t.circuit ~loads:(Array.copy t.loads)
    ~input_ramp:(Array.copy t.input_ramp) ~delays:(Array.copy t.delays)
    ~ramps:(Array.copy t.ramps) ~arrival:(Array.copy t.arrival)
