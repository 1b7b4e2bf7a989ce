module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate
module Library = Ser_cell.Library
module Cell_params = Ser_device.Cell_params
module Assignment = Ser_sta.Assignment
module Timing = Ser_sta.Timing
module Analysis = Aserta.Analysis
module Obs = Ser_obs.Obs

module Incr_sta = Ser_sta.Incr_sta

let same_bits = Ser_util.Floatx.same_bits

let same_matrix a b =
  a == b
  ||
  let n = Array.length a in
  Array.length b = n
  &&
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < n do
    if not (Ser_util.Floatx.same_bits_array a.(!j) b.(!j)) then ok := false;
    incr j
  done;
  !ok

module Memo = struct
  type stats = { hits : int; misses : int }

  type t = {
    glitch : (Cell_params.t * float * float, float * float) Hashtbl.t;
    mu : Mutex.t;
    mutable hits : int;
    mutable misses : int;
  }

  let create () =
    {
      glitch = Hashtbl.create 512;
      mu = Mutex.create ();
      hits = 0;
      misses = 0;
    }

  let stats m =
    Mutex.lock m.mu;
    let s = { hits = m.hits; misses = m.misses } in
    Mutex.unlock m.mu;
    s

  (* The mutex is released around [compute]: a miss may itself take the
     library's characterisation lock (Transient backend), and two
     workers racing on the same key merely compute the same pure value
     twice. *)
  let lookup m tbl key compute =
    Mutex.lock m.mu;
    match Hashtbl.find_opt tbl key with
    | Some v ->
      m.hits <- m.hits + 1;
      Mutex.unlock m.mu;
      v
    | None ->
      m.misses <- m.misses + 1;
      Mutex.unlock m.mu;
      let v = compute () in
      Mutex.lock m.mu;
      Hashtbl.replace tbl key v;
      Mutex.unlock m.mu;
      v
end

(* Process-wide obs probes. The per-gate loops below stay free of
   atomics: [update] counts into local ints and adds them to these
   counters once per update. *)
let m_updates = Obs.Metrics.counter "incr.updates"
let m_cells = Obs.Metrics.counter "incr.cells_changed"
let m_sta = Obs.Metrics.counter "incr.sta_recomputed"
let m_sta_cut = Obs.Metrics.counter "incr.sta_cutoff"
let m_tbl = Obs.Metrics.counter "incr.tables_recomputed"
let m_tbl_cut = Obs.Metrics.counter "incr.tables_cutoff"
let m_gates = Obs.Metrics.counter "incr.gates_recomputed"
let m_rebuilds = Obs.Metrics.counter "incr.full_rebuilds"
let m_drift = Obs.Metrics.counter "incr.drift_snaps"
let m_cone = Obs.Metrics.histogram "incr.cone_gates"

type t = {
  lib : Library.t;
  config : Analysis.config;
  masking : Analysis.masking;
  circuit : Circuit.t;
  cx : Analysis.context; (* assignment-independent, shared by forks *)
  sta : Incr_sta.t; (* cells and the timing arrays *)
  (* mutable per-gate state, mirroring Analysis.t *)
  tables : float array array array;
  gen_width : float array;
  expected_width : float array array;
  unreliability : float array;
  dyn_energy : float array;
  leak_power : float array;
  cell_area : float array;
  (* per-gate caches of pure sub-results, refreshed only when their
     inputs change: generated glitch widths (cell + node load), and the
     Eq-1 attenuation brackets of the sample grid through the gate's
     current delay (read by every driver's table recompute) *)
  glitch_low : float array;
  glitch_high : float array;
  brackets : (int array * float array) array;
  (* compensated running total of [unreliability]; the authoritative
     total is always the exact sequential re-fold (see [total]) *)
  mutable kahan_sum : float;
  mutable kahan_c : float;
  memo : Memo.t;
}

type metrics = {
  m_unreliability : float;
  m_delay : float;
  m_energy : float;
  m_area : float;
}

let kahan_add t x =
  let y = x -. t.kahan_c in
  let s = t.kahan_sum +. y in
  t.kahan_c <- (s -. t.kahan_sum) -. y;
  t.kahan_sum <- s

(* Exactly Analysis.run_electrical's total: a plain sequential sum over
   the per-gate array in id order. *)
let refold t =
  let tot = ref 0. in
  Array.iter (fun u -> tot := !tot +. u) t.unreliability;
  !tot

let memo_glitch t cell ~node_cap =
  let charge = t.config.Analysis.charge in
  Memo.lookup t.memo t.memo.Memo.glitch (cell, node_cap, charge) (fun () ->
      ( Library.generated_glitch_width t.lib cell ~node_cap ~charge
          ~output_low:true,
        Library.generated_glitch_width t.lib cell ~node_cap ~charge
          ~output_low:false ))

(* Adopt a from-scratch analysis of the handle's current assignment:
   copy its per-gate results and refresh every per-gate cache. *)
let adopt t (a : Analysis.t) =
  let n = Circuit.node_count t.circuit in
  Array.blit a.Analysis.tables 0 t.tables 0 n;
  Array.blit a.Analysis.gen_width 0 t.gen_width 0 n;
  Array.blit a.Analysis.expected_width 0 t.expected_width 0 n;
  Array.blit a.Analysis.unreliability 0 t.unreliability 0 n;
  for id = 0 to n - 1 do
    if not (Circuit.is_input t.circuit id) then begin
      let p = Incr_sta.cell t.sta id in
      let load = Incr_sta.load t.sta id in
      t.dyn_energy.(id) <- Library.switching_energy t.lib p ~cload:load;
      t.leak_power.(id) <- Library.leakage_power t.lib p;
      t.cell_area.(id) <- Library.area t.lib p;
      let node_cap = load +. Library.output_cap t.lib p in
      let wl, wh = memo_glitch t p ~node_cap in
      t.glitch_low.(id) <- wl;
      t.glitch_high.(id) <- wh;
      t.brackets.(id) <-
        Analysis.ws_brackets t.cx.Analysis.grid ~delay:(Incr_sta.delay t.sta id)
    end
  done;
  t.kahan_sum <- refold t;
  t.kahan_c <- 0.

let of_analysis ?memo lib asg (a : Analysis.t) =
  let c = Assignment.circuit asg in
  if a.Analysis.circuit != c then
    invalid_arg "Incr.of_analysis: analysis is for a different circuit";
  let n = Circuit.node_count c in
  let config = a.Analysis.config in
  let t =
    {
      lib;
      config;
      masking = a.Analysis.masking;
      circuit = c;
      cx = a.Analysis.context;
      sta =
        Incr_sta.of_timing ~env:config.Analysis.env lib asg a.Analysis.timing;
      tables = Array.make n [||];
      gen_width = Array.make n 0.;
      expected_width = Array.make n [||];
      unreliability = Array.make n 0.;
      dyn_energy = Array.make n 0.;
      leak_power = Array.make n 0.;
      cell_area = Array.make n 0.;
      glitch_low = Array.make n 0.;
      glitch_high = Array.make n 0.;
      brackets = Array.make n ([||], [||]);
      kahan_sum = 0.;
      kahan_c = 0.;
      memo = (match memo with Some m -> m | None -> Memo.create ());
    }
  in
  adopt t a;
  t

let create ?memo ~config lib asg masking =
  of_analysis ?memo lib asg (Analysis.run_electrical config lib asg masking)

let fork t =
  {
    t with
    sta = Incr_sta.fork t.sta;
    (* spine copies: the inner rows are replaced wholesale on every
       recompute, never mutated, so sharing them is safe copy-on-write *)
    tables = Array.copy t.tables;
    gen_width = Array.copy t.gen_width;
    expected_width = Array.copy t.expected_width;
    unreliability = Array.copy t.unreliability;
    dyn_energy = Array.copy t.dyn_energy;
    leak_power = Array.copy t.leak_power;
    cell_area = Array.copy t.cell_area;
    glitch_low = Array.copy t.glitch_low;
    glitch_high = Array.copy t.glitch_high;
    brackets = Array.copy t.brackets;
  }

let validate t g (cell : Cell_params.t) =
  let c = t.circuit in
  if g < 0 || g >= Circuit.node_count c then
    invalid_arg "Incr.update: gate id out of range";
  let nd = Circuit.node c g in
  if nd.Circuit.kind = Gate.Input then
    invalid_arg "Incr.update: primary input";
  if
    cell.Cell_params.kind <> nd.Circuit.kind
    || cell.Cell_params.fanin <> Array.length nd.Circuit.fanin
  then invalid_arg "Incr.update: cell does not match gate"

(* When one batch touches a large fraction of the gates, the union of
   the dirty cones covers nearly the whole circuit and cone propagation
   costs more than the from-scratch pass it replays — rebuild wholesale
   instead. Either path yields the same bit-identical state. *)
let rebuild t changes =
  Obs.Metrics.incr m_rebuilds;
  Incr_sta.apply_cells t.sta changes;
  adopt t
    (Analysis.run_electrical_with t.cx t.config t.lib
       (Incr_sta.assignment t.sta) t.masking)

(* Cone propagation of a batch of effective changes. The per-gate loops
   count into local ints, added to the obs counters once at the end. *)
let propagate t changes =
  let sta = t.sta in
  let c = t.circuit in
  let n = Circuit.node_count c in
  (* 1-3. cell writes, loads of the fan-in nets and the forward STA
     over the fanout cone, with bitwise cutoff: the STA handle *)
  let evals0 = Incr_sta.gate_evals sta and cut0 = Incr_sta.cutoffs sta in
  Incr_sta.apply_cells sta changes;
  let cell_changed = Array.make n false in
  let table_changed = Array.make n false in
  List.iter
    (fun (g, cell) ->
      cell_changed.(g) <- true;
      t.leak_power.(g) <- Library.leakage_power t.lib cell;
      t.cell_area.(g) <- Library.area t.lib cell)
    changes;
  (* 4. WS tables over the fanin cone of the delay changes, descending
     ids (reverse topological): a gate's table reads only its
     successors' delays and tables, so it is stale iff some successor
     has a changed delay or a changed table. Primary-output gates'
     tables are constant. A changed delay refreshes the gate's
     brackets before any driver (a smaller id) reads them. Cutoff: a
     recomputed table that is bit-identical does not dirty its
     drivers. *)
  let tables_recomputed = ref 0 and tables_cutoff = ref 0 in
  for id = n - 1 downto 0 do
    if Incr_sta.delay_changed sta id then
      t.brackets.(id) <-
        Analysis.ws_brackets t.cx.Analysis.grid ~delay:(Incr_sta.delay sta id);
    match t.cx.Analysis.ws_ctx.(id) with
    | None -> ()
    | Some ctx ->
      let stale = ref false in
      Array.iter
        (fun s ->
          if Incr_sta.delay_changed sta s || table_changed.(s) then
            stale := true)
        (Circuit.node c id).Circuit.fanout;
      if !stale then begin
        incr tables_recomputed;
        let tbl =
          Analysis.ws_table t.cx ctx ~brackets:t.brackets ~tables:t.tables
        in
        if same_matrix tbl t.tables.(id) then incr tables_cutoff
        else begin
          t.tables.(id) <- tbl;
          table_changed.(id) <- true
        end
      end
  done;
  (* 5. per-gate unreliability (and switching energy) wherever the
     cell, the node load, or the WS table actually changed *)
  let gates_recomputed = ref 0 in
  for id = 0 to n - 1 do
    let moved = cell_changed.(id) || Incr_sta.load_changed sta id in
    if (moved || table_changed.(id)) && not (Circuit.is_input c id) then begin
      incr gates_recomputed;
      if moved then begin
        (* only a cell or load change moves the generated glitch
           widths and the switching energy; a table-only change
           reuses the cached pair *)
        let cell = Incr_sta.cell sta id in
        let load = Incr_sta.load sta id in
        let node_cap = load +. Library.output_cap t.lib cell in
        let wl, wh = memo_glitch t cell ~node_cap in
        t.glitch_low.(id) <- wl;
        t.glitch_high.(id) <- wh;
        t.dyn_energy.(id) <- Library.switching_energy t.lib cell ~cload:load
      end;
      let wi, wij, u =
        Analysis.gate_unreliability t.cx t.masking ~table:t.tables.(id)
          ~w_low:t.glitch_low.(id) ~w_high:t.glitch_high.(id)
          ~area:t.cell_area.(id) id
      in
      t.gen_width.(id) <- wi;
      t.expected_width.(id) <- wij;
      let old_u = t.unreliability.(id) in
      if not (same_bits u old_u) then begin
        kahan_add t (u -. old_u);
        t.unreliability.(id) <- u
      end
    end
  done;
  let sta_evals = Incr_sta.gate_evals sta - evals0 in
  Obs.Metrics.add m_sta sta_evals;
  Obs.Metrics.add m_sta_cut (Incr_sta.cutoffs sta - cut0);
  Obs.Metrics.add m_tbl !tables_recomputed;
  Obs.Metrics.add m_tbl_cut !tables_cutoff;
  Obs.Metrics.add m_gates !gates_recomputed;
  Obs.Metrics.observe m_cone sta_evals

(* The batch as if applied in order: each gate once, at its last
   write, dropped if that is its current cell. *)
let effective_changes t changes =
  let last = Hashtbl.create 8 in
  List.iter
    (fun (g, cell) ->
      validate t g cell;
      Hashtbl.replace last g cell)
    changes;
  List.filter_map
    (fun (g, _) ->
      match Hashtbl.find_opt last g with
      | None -> None
      | Some cell ->
        Hashtbl.remove last g;
        if Cell_params.equal (Incr_sta.cell t.sta g) cell then None
        else Some (g, cell))
    changes

(* When one batch touches a large fraction of the gates, the union of
   the dirty cones covers nearly the whole circuit and cone propagation
   costs more than the from-scratch pass it replays — rebuild wholesale
   instead. Either path yields the same bit-identical state. The span
   covers the whole update; the cone-size histogram records how many
   gates the forward STA pass visited per incremental update. *)
let update t changes =
  Obs.Trace.with_span "incr.update" @@ fun () ->
  match effective_changes t changes with
  | [] -> ()
  | changes ->
    let k = List.length changes in
    Obs.Metrics.incr m_updates;
    Obs.Metrics.add m_cells k;
    if k > max 8 (Circuit.gate_count t.circuit / 8) then rebuild t changes
    else propagate t changes

let set_cell t g cell = update t [ (g, cell) ]

let sync t asg =
  if Assignment.circuit asg != t.circuit then
    invalid_arg "Incr.sync: assignment is for a different circuit";
  let diffs = ref [] in
  for id = Circuit.node_count t.circuit - 1 downto 0 do
    if not (Circuit.is_input t.circuit id) then begin
      let want = Assignment.get asg id in
      if not (Cell_params.equal (Incr_sta.cell t.sta id) want) then
        diffs := (id, want) :: !diffs
    end
  done;
  update t !diffs

let cell t id = Incr_sta.cell t.sta id
let unreliability t id = t.unreliability.(id)
let critical_delay t = Incr_sta.critical_delay t.sta

let total t =
  let r = refold t in
  (* drift diagnostic: the compensated running total normally agrees
     with the exact sequential fold to ~1 ulp; a larger gap means
     cancellation damage, so snap the running value back *)
  if Float.abs (t.kahan_sum -. r) > 1e-9 *. (Float.abs r +. 1.) then begin
    Obs.Metrics.incr m_drift;
    t.kahan_sum <- r;
    t.kahan_c <- 0.
  end;
  r

let running_total t = t.kahan_sum

(* Exactly Timing.total_energy with its default activity (0.2) and
   default clock (1.2 x critical delay), as Cost.measure invokes it:
   the fold visits gates in id order with the same operation tree. *)
let energy t =
  let clock = 1.2 *. critical_delay t in
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
    if not (Circuit.is_input t.circuit id) then
      acc := !acc +. t.cell_area.(id)
  done;
  !acc

let metrics t =
  {
    m_unreliability = total t;
    m_delay = critical_delay t;
    m_energy = energy t;
    m_area = area t;
  }

let assignment t = Incr_sta.assignment t.sta
let timing t = Incr_sta.timing t.sta

let snapshot t =
  {
    Analysis.config = t.config;
    circuit = t.circuit;
    masking = t.masking;
    timing = timing t;
    gen_width = Array.copy t.gen_width;
    expected_width = Array.copy t.expected_width;
    unreliability = Array.copy t.unreliability;
    total = total t;
    samples = t.cx.Analysis.grid;
    tables = Array.copy t.tables;
    context = t.cx;
  }

let memo_stats t = Memo.stats t.memo
let memo t = t.memo
