module Circuit = Ser_netlist.Circuit
module Library = Ser_cell.Library
module Assignment = Ser_sta.Assignment
module Incr_sta = Ser_sta.Incr_sta
module Analysis = Aserta.Analysis
module Obs = Ser_obs.Obs

(* The per-gate loops count into local ints and add them to these
   counters once per update. *)
let m_updates = Obs.Metrics.counter "serpp.updates"
let m_profiles = Obs.Metrics.counter "serpp.profiles_recomputed"
let m_profiles_cut = Obs.Metrics.counter "serpp.profiles_cutoff"

type t = {
  lib : Library.t;
  config : Serpp.config;
  circuit : Circuit.t;
  cx : Serpp.context; (* assignment-independent, shared by forks *)
  sta : Incr_sta.t; (* cells and the timing arrays *)
  (* mutable per-gate state, mirroring Serpp.t; profile rows and
     brackets are replaced wholesale, never mutated, so forks share
     them *)
  brackets : (int array * float array) array;
  profiles : float array array;
  gen_width : float array; (* refreshed on a cell or load change only *)
  estimate : float array;
  areas : float array;
  dyn_energy : float array;
  leak_power : float array;
  (* per-update marks ([stale_bit], [profile_bit], [cell_bit]), clear
     between updates *)
  marks : Bytes.t;
}

type metrics = {
  unreliability : float;
  delay : float;
  energy : float;
  area : float;
}

let stale_bit = 1
let profile_bit = 2
let cell_bit = 4
let has t id bit = Char.code (Bytes.unsafe_get t.marks id) land bit <> 0

let set t id bit =
  Bytes.unsafe_set t.marks id
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.marks id) lor bit))

let refresh_gate_terms t id ~cell_changed =
  let cell = Incr_sta.cell t.sta id in
  let load = Incr_sta.load t.sta id in
  if cell_changed then begin
    t.leak_power.(id) <- Library.leakage_power t.lib cell;
    t.areas.(id) <- Library.area t.lib cell
  end;
  t.dyn_energy.(id) <- Library.switching_energy t.lib cell ~cload:load;
  t.gen_width.(id) <-
    Serpp.gen_width t.cx t.lib ~charge:t.config.Serpp.charge cell ~load id

let create ?config lib asg =
  let r = Serpp.run ?config lib asg in
  let c = Assignment.circuit asg in
  let n = Circuit.node_count c in
  let cx = r.Serpp.context in
  let sta =
    Incr_sta.of_timing ~env:r.Serpp.config.Serpp.env lib asg r.Serpp.timing
  in
  let t =
    {
      lib;
      config = r.Serpp.config;
      circuit = c;
      cx;
      sta;
      brackets = Array.make n ([||], [||]);
      profiles = r.Serpp.profiles;
      gen_width = r.Serpp.gen_width;
      estimate = r.Serpp.estimate;
      areas = r.Serpp.areas;
      dyn_energy = Array.make n 0.;
      leak_power = Array.make n 0.;
      marks = Bytes.make n '\000';
    }
  in
  for id = 0 to n - 1 do
    if not (Circuit.is_input c id) then begin
      let cell = Incr_sta.cell sta id in
      t.brackets.(id) <-
        Analysis.ws_brackets cx.Serpp.grid ~delay:(Incr_sta.delay sta id);
      t.dyn_energy.(id) <-
        Library.switching_energy lib cell ~cload:(Incr_sta.load sta id);
      t.leak_power.(id) <- Library.leakage_power lib cell
    end
  done;
  t

let fork t =
  {
    t with
    sta = Incr_sta.fork t.sta;
    brackets = Array.copy t.brackets;
    profiles = Array.copy t.profiles;
    gen_width = Array.copy t.gen_width;
    estimate = Array.copy t.estimate;
    areas = Array.copy t.areas;
    dyn_energy = Array.copy t.dyn_energy;
    leak_power = Array.copy t.leak_power;
    marks = Bytes.make (Bytes.length t.marks) '\000';
  }

(* Propagate one batch. Every scan is bounded to the id span the batch
   can reach. *)
let propagate t changes =
  let sta = t.sta and c = t.circuit and cx = t.cx in
  (* 1. cell writes, loads of the fan-in nets and the forward STA over
     the fanout cone, with bitwise cutoff: the STA handle *)
  Incr_sta.apply_cells sta changes;
  let sta_lo, sta_hi = Incr_sta.changed_span sta in
  let lo = ref sta_lo and hi = ref sta_hi in
  List.iter
    (fun (g, _) ->
      set t g cell_bit;
      if g < !lo then lo := g;
      if g > !hi then hi := g)
    changes;
  (* 2-3. brackets of the gates whose delay changed, and profile rows
     over the fan-in cone of the delay and profile changes, descending
     ids (reverse topological): a gate's row reads only its
     successors' brackets and rows, so it is stale iff some successor
     changed either. Output gates' rows are constant. Cutoff: a
     recomputed row that is bit-identical does not dirty its drivers. *)
  let stale_drivers g =
    Array.iter
      (fun f ->
        if not (Circuit.is_input c f || cx.Serpp.is_po.(f)) then begin
          set t f stale_bit;
          if f < !lo then lo := f
        end)
      (Circuit.node c g).Circuit.fanin
  in
  let recomputed = ref 0 and cutoff = ref 0 in
  let id = ref sta_hi in
  while !id >= !lo do
    let g = !id in
    if has t g stale_bit then begin
      incr recomputed;
      let row = Serpp.profile_row cx ~brackets:t.brackets ~profiles:t.profiles g in
      if Ser_util.Floatx.same_bits_array row t.profiles.(g) then incr cutoff
      else begin
        t.profiles.(g) <- row;
        set t g profile_bit;
        stale_drivers g
      end
    end;
    if Incr_sta.delay_changed sta g then begin
      t.brackets.(g) <-
        Analysis.ws_brackets cx.Serpp.grid ~delay:(Incr_sta.delay sta g);
      stale_drivers g
    end;
    decr id
  done;
  (* 4. per-gate estimates wherever the cell, the node load or the
     profile changed; only a cell or load change moves the generated
     width and the switching energy *)
  for g = !lo to !hi do
    let cell_changed = has t g cell_bit in
    let moved = cell_changed || Incr_sta.load_changed sta g in
    if (moved || has t g profile_bit) && not (Circuit.is_input c g) then begin
      if moved then refresh_gate_terms t g ~cell_changed;
      let _, u =
        Serpp.gate_estimate cx ~profile:t.profiles.(g)
          ~gen_width:t.gen_width.(g) ~area:t.areas.(g)
      in
      t.estimate.(g) <- u
    end
  done;
  if !lo <= !hi then Bytes.fill t.marks !lo (!hi - !lo + 1) '\000';
  Obs.Metrics.incr m_updates;
  Obs.Metrics.add m_profiles !recomputed;
  Obs.Metrics.add m_profiles_cut !cutoff

let update t changes =
  match changes with
  | [] -> ()
  | _ -> Obs.Trace.with_span "serpp.update" (fun () -> propagate t changes)

let set_cell t g cell = update t [ (g, cell) ]

let sync t asg =
  if Assignment.circuit asg != t.circuit then
    invalid_arg "Incr_serpp.sync: assignment is for a different circuit";
  let diffs = ref [] in
  for id = Circuit.node_count t.circuit - 1 downto 0 do
    if not (Circuit.is_input t.circuit id) then begin
      let want = Assignment.get asg id in
      if not (Ser_device.Cell_params.equal (Incr_sta.cell t.sta id) want) then
        diffs := (id, want) :: !diffs
    end
  done;
  update t !diffs

(* Exactly Serpp.run's total: a plain sequential sum in id order. *)
let total t =
  let acc = ref 0. in
  Array.iter (fun u -> acc := !acc +. u) t.estimate;
  !acc

(* Exactly Timing.total_energy with its default activity (0.2) and
   clock (1.2 x critical delay): the same fold in id order. *)
let energy t =
  let clock = 1.2 *. Incr_sta.critical_delay t.sta in
  let acc = ref 0. in
  for id = 0 to Circuit.node_count t.circuit - 1 do
    if not (Circuit.is_input t.circuit id) then begin
      let leak = t.leak_power.(id) *. clock in
      acc := !acc +. (0.2 *. t.dyn_energy.(id)) +. leak
    end
  done;
  !acc

(* Exactly Assignment.total_area's fold. *)
let area t =
  let acc = ref 0. in
  for id = 0 to Circuit.node_count t.circuit - 1 do
    if not (Circuit.is_input t.circuit id) then acc := !acc +. t.areas.(id)
  done;
  !acc

let metrics t =
  {
    unreliability = total t;
    delay = Incr_sta.critical_delay t.sta;
    energy = energy t;
    area = area t;
  }

let profile t id = t.profiles.(id)
let estimate t id = t.estimate.(id)
