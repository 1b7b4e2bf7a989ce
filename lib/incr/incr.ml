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

let same_row a b =
  a == b
  ||
  let n = Array.length a in
  Array.length b = n
  &&
  let ok = ref true in
  let k = ref 0 in
  while !ok && !k < n do
    if not (same_bits a.(!k) b.(!k)) then ok := false;
    incr k
  done;
  !ok

let same_matrix a b =
  a == b
  ||
  let n = Array.length a in
  Array.length b = n
  &&
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < n do
    if not (same_row a.(!j) b.(!j)) then ok := false;
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

type stats = {
  mutable updates : int;
  mutable cells_changed : int;
  mutable sta_recomputed : int;
  mutable sta_cutoff : int;
  mutable tables_recomputed : int;
  mutable tables_cutoff : int;
  mutable gates_recomputed : int;
  mutable drift_snaps : int;
  mutable full_rebuilds : int;
}

let fresh_stats () =
  {
    updates = 0;
    cells_changed = 0;
    sta_recomputed = 0;
    sta_cutoff = 0;
    tables_recomputed = 0;
    tables_cutoff = 0;
    gates_recomputed = 0;
    drift_snaps = 0;
    full_rebuilds = 0;
  }

(* Process-wide obs probes. The per-gate loops below stay free of
   atomics and allocation: [update] accumulates into the engine's own
   mutable [stats] record and the wrapper flushes the per-update deltas
   into these counters in one go. *)
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
  samples : float array;
  n_pos : int;
  po_pos : int array;
  ws_ctx : Analysis.ws_ctx option array;
      (* per non-input, non-PO gate: hoisted successors/sensitizations/
         weights; assignment-independent, shared by forks *)
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
  stats : stats;
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

(* [Analysis.gate_unreliability], restated for repeated evaluation:

   - dead outputs are skipped: when the gate's WS-table row for an
     output is provably all zeros ([Analysis.ws_ctx_live] false; every
     off-position row of a primary-output gate), the original
     interpolation returns exactly [+0.] ([lerp 0. 0. t] with [t] in
     [0, 1]), so returning the literal is bit-identical and saves the
     table walk — on wide circuits most (gate, output) pairs are dead;
   - the interpolation bracket of [wi] on the sample grid is hoisted
     out of the per-output loop ([Lut.interpolate_1d] recomputes the
     same index and fraction for every output since [x = wi] is
     shared), leaving one [lerp] per live output. *)
let gate_unrel t id ~w_low ~w_high =
  let p1 = t.masking.Analysis.probs.(id) in
  let wi = ((1. -. p1) *. w_low) +. (p1 *. w_high) in
  let tbl = t.tables.(id) in
  let ws = t.samples in
  let n_samples = Array.length ws in
  let br = Ser_util.Floatx.binary_search_bracket ws wi in
  let x = Ser_util.Floatx.clamp ~lo:ws.(0) ~hi:ws.(n_samples - 1) wi in
  let fr = Ser_util.Floatx.inv_lerp ws.(br) ws.(br + 1) x in
  let wij =
    Array.init t.n_pos (fun j ->
        if t.po_pos.(id) = j then wi
        else if tbl = [||] then 0.
        else
          let live =
            match t.ws_ctx.(id) with
            | Some ctx -> Analysis.ws_ctx_live ctx j
            | None -> false
          in
          if live then
            let row = tbl.(j) in
            Ser_util.Floatx.lerp row.(br) row.(br + 1) fr
          else 0.)
  in
  (wi, wij, t.cell_area.(id) *. Ser_util.Floatx.sum wij)

let of_analysis ?memo lib asg (a : Analysis.t) =
  let c = Assignment.circuit asg in
  if a.Analysis.circuit != c then
    invalid_arg "Incr.of_analysis: analysis is for a different circuit";
  let n = Circuit.node_count c in
  let timing = a.Analysis.timing in
  let po_pos = Analysis.output_positions c in
  (* hoist the assignment-independent part of every WS-table
     computation (successors, sensitizations, Eq-2 weights); immutable,
     so forks share it *)
  let ws_ctx =
    Array.init n (fun id ->
        if Circuit.is_input c id || po_pos.(id) >= 0 then None
        else Some (Analysis.make_ws_ctx a.Analysis.config a.Analysis.masking c id))
  in
  let config = a.Analysis.config in
  let dyn_energy = Array.make n 0. in
  let leak_power = Array.make n 0. in
  let cell_area = Array.make n 0. in
  let glitch_low = Array.make n 0. in
  let glitch_high = Array.make n 0. in
  let brackets = Array.make n ([||], [||]) in
  Assignment.fold_gates asg ~init:() ~f:(fun () id p ->
        dyn_energy.(id) <-
          Library.switching_energy lib p ~cload:timing.Timing.loads.(id);
        leak_power.(id) <- Library.leakage_power lib p;
        cell_area.(id) <- Library.area lib p;
        let node_cap =
          timing.Timing.loads.(id) +. Library.output_cap lib p
        in
        let charge = config.Analysis.charge in
        glitch_low.(id) <-
          Library.generated_glitch_width lib p ~node_cap ~charge
            ~output_low:true;
        glitch_high.(id) <-
          Library.generated_glitch_width lib p ~node_cap ~charge
            ~output_low:false;
        brackets.(id) <-
          Analysis.ws_brackets ~samples:a.Analysis.samples
            ~delay:timing.Timing.delays.(id));
  let t =
    {
      lib;
      config = a.Analysis.config;
      masking = a.Analysis.masking;
      circuit = c;
      samples = a.Analysis.samples;
      n_pos = Array.length c.Circuit.outputs;
      po_pos;
      ws_ctx;
      sta = Incr_sta.of_timing ~env:config.Analysis.env lib asg timing;
      tables =
        (* re-point every provably-zero row at the gate's shared zero
           row ([ws_ctx_live] false implies the materialised row is all
           zeros under any assignment), so the first cutoff comparison
           of each table short-circuits on physical equality instead of
           scanning dead rows *)
        Array.mapi
          (fun id m ->
            match ws_ctx.(id) with
            | None -> m
            | Some ctx ->
              Array.mapi
                (fun j row ->
                  if Analysis.ws_ctx_live ctx j then row
                  else Analysis.ws_ctx_zero_row ctx)
                m)
          a.Analysis.tables;
      gen_width = Array.copy a.Analysis.gen_width;
      expected_width = Array.copy a.Analysis.expected_width;
      unreliability = Array.copy a.Analysis.unreliability;
      dyn_energy;
      leak_power;
      cell_area;
      glitch_low;
      glitch_high;
      brackets;
      kahan_sum = 0.;
      kahan_c = 0.;
      memo = (match memo with Some m -> m | None -> Memo.create ());
      stats = fresh_stats ();
    }
  in
  t.kahan_sum <- refold t;
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
    stats = fresh_stats ();
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
  t.stats.full_rebuilds <- t.stats.full_rebuilds + 1;
  Obs.Metrics.incr m_rebuilds;
  t.stats.cells_changed <- t.stats.cells_changed + List.length changes;
  Incr_sta.try_cells t.sta changes;
  Incr_sta.commit t.sta;
  let a =
    Analysis.run_electrical t.config t.lib (Incr_sta.assignment t.sta)
      t.masking
  in
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
        Analysis.ws_brackets ~samples:t.samples ~delay:(Incr_sta.delay t.sta id)
    end
  done;
  t.kahan_sum <- refold t;
  t.kahan_c <- 0.

let update_impl t changes =
  let sta = t.sta in
  (* the batch as if applied in order: each gate once, at its last
     write, dropped if that is its current cell *)
  let last = Hashtbl.create 8 in
  List.iter
    (fun (g, cell) ->
      validate t g cell;
      Hashtbl.replace last g cell)
    changes;
  let changes =
    List.filter_map
      (fun (g, _) ->
        match Hashtbl.find_opt last g with
        | None -> None
        | Some cell ->
          Hashtbl.remove last g;
          if Cell_params.equal (Incr_sta.cell sta g) cell then None
          else Some (g, cell))
      changes
  in
  if changes <> [] then begin
    t.stats.updates <- t.stats.updates + 1;
    let c = t.circuit in
    let n = Circuit.node_count c in
    if List.length changes > max 8 (Circuit.gate_count c / 8) then
      rebuild t changes
    else begin
    (* 1-3. cell writes, loads of the fan-in nets and the forward STA
       over the fanout cone, with bitwise cutoff: the STA handle *)
    let evals0 = Incr_sta.gate_evals sta and cut0 = Incr_sta.cutoffs sta in
    Incr_sta.try_cells sta changes;
    Incr_sta.commit sta;
    t.stats.sta_recomputed <-
      t.stats.sta_recomputed + Incr_sta.gate_evals sta - evals0;
    t.stats.sta_cutoff <- t.stats.sta_cutoff + Incr_sta.cutoffs sta - cut0;
    let cell_changed = Array.make n false in
    let table_changed = Array.make n false in
    List.iter
      (fun (g, cell) ->
        t.stats.cells_changed <- t.stats.cells_changed + 1;
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
    for id = n - 1 downto 0 do
      if Incr_sta.delay_changed sta id then
        t.brackets.(id) <-
          Analysis.ws_brackets ~samples:t.samples ~delay:(Incr_sta.delay sta id);
      (* [ws_ctx] is [Some] exactly on the non-input, non-PO gates *)
      match t.ws_ctx.(id) with
      | None -> ()
      | Some ctx ->
        let nd = Circuit.node c id in
        let stale = ref false in
        Array.iter
          (fun s ->
            if Incr_sta.delay_changed sta s || table_changed.(s) then
              stale := true)
          nd.Circuit.fanout;
        if !stale then begin
          t.stats.tables_recomputed <- t.stats.tables_recomputed + 1;
          let succs = Analysis.ws_ctx_succs ctx in
          let brackets = Array.map (fun s -> t.brackets.(s)) succs in
          let tbl =
            Analysis.ws_table_ctx ctx ~samples:t.samples ~n_pos:t.n_pos
              ~brackets ~tables:t.tables c id
          in
          if same_matrix tbl t.tables.(id) then
            t.stats.tables_cutoff <- t.stats.tables_cutoff + 1
          else begin
            t.tables.(id) <- tbl;
            table_changed.(id) <- true
          end
        end
    done;
    (* 5. per-gate unreliability (and switching energy) wherever the
       cell, the node load, or the WS table actually changed *)
    for id = 0 to n - 1 do
      let moved = cell_changed.(id) || Incr_sta.load_changed sta id in
      if (moved || table_changed.(id)) && not (Circuit.is_input c id) then begin
        t.stats.gates_recomputed <- t.stats.gates_recomputed + 1;
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
          gate_unrel t id ~w_low:t.glitch_low.(id) ~w_high:t.glitch_high.(id)
        in
        t.gen_width.(id) <- wi;
        t.expected_width.(id) <- wij;
        let old_u = t.unreliability.(id) in
        if not (same_bits u old_u) then begin
          kahan_add t (u -. old_u);
          t.unreliability.(id) <- u
        end
      end
    done
    end
  end

(* [update_impl] + obs: a span over the whole cone propagation and a
   single delta flush of the engine's stats into the process-wide
   counters (covers the [rebuild] path too, which [update_impl] may
   take). The cone-size histogram records how many gates the forward
   STA pass actually visited per incremental update. *)
let update t changes =
  let s = t.stats in
  let b_updates = s.updates
  and b_cells = s.cells_changed
  and b_sta = s.sta_recomputed
  and b_sta_cut = s.sta_cutoff
  and b_tbl = s.tables_recomputed
  and b_tbl_cut = s.tables_cutoff
  and b_gates = s.gates_recomputed
  and b_rebuilds = s.full_rebuilds in
  let sp = Obs.Trace.start "incr.update" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.finish sp;
      let d c now before = if now > before then Obs.Metrics.add c (now - before) in
      d m_updates s.updates b_updates;
      d m_cells s.cells_changed b_cells;
      d m_sta s.sta_recomputed b_sta;
      d m_sta_cut s.sta_cutoff b_sta_cut;
      d m_tbl s.tables_recomputed b_tbl;
      d m_tbl_cut s.tables_cutoff b_tbl_cut;
      d m_gates s.gates_recomputed b_gates;
      if s.updates > b_updates && s.full_rebuilds = b_rebuilds then
        Obs.Metrics.observe m_cone (s.sta_recomputed - b_sta))
    (fun () -> update_impl t changes)

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
    t.stats.drift_snaps <- t.stats.drift_snaps + 1;
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
    samples = t.samples;
    tables = Array.copy t.tables;
  }

let stats t = t.stats
let memo_stats t = Memo.stats t.memo
let memo t = t.memo
