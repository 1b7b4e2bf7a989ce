(* End-to-end benchmark of the sertool ops, timed layer by layer from
   outside the program.

   Every workload is a closed loop with one caller: the next request is
   issued only after the previous reply. Untraced runs ([--trace 0]) call
   the entry points a user reaches ([Handlers.run], or a [sertool serve]
   daemon over a kept-alive connection) and report the end-to-end
   metrics. Traced runs ([--trace 1]) run every request twice, once
   through [Handlers.run] and once through each layer's public function
   in [Handlers]' order under the benchmark's own in-memory spans, check
   that both render byte-identical payloads, and report the per-layer
   metrics. The program itself is not instrumented for this: its own
   trace ring buffers drop events on long runs, so only the always-on
   [Obs.Metrics] counters are read from it.

   perfbench/README.md documents every metric and workload. *)

module Json = Ser_util.Json
module Diag = Ser_util.Diag
module Request = Ser_cli.Request
module Handlers = Ser_cli.Handlers
module Metrics = Ser_obs.Obs.Metrics
module Analysis = Aserta.Analysis
module Serpp = Ser_serpp.Serpp
module Odc = Ser_odc.Odc
module Optimizer = Sertopt.Optimizer

let now = Ser_util.Mono.now

(* ------------------------------ statistics ------------------------------ *)

(* Linear interpolation between closest ranks, as numpy's default. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.

(* ------------------------------- workloads ------------------------------ *)

type kind = Analyze_aserta | Analyze_serpp | Odc_op | Optimize_exact | Optimize_tiered

let kinds = [ Analyze_aserta; Analyze_serpp; Odc_op; Optimize_exact; Optimize_tiered ]

let kind_name = function
  | Analyze_aserta -> "analyze_aserta"
  | Analyze_serpp -> "analyze_serpp"
  | Odc_op -> "odc"
  | Optimize_exact -> "optimize_exact"
  | Optimize_tiered -> "optimize_tiered"

type item = { label : string; kind : kind; req : Request.t }

(* The netlist a workload ships inline: the seeded synthetic circuit of
   the named ISCAS'85 profile (c17 is the verbatim circuit). *)
let bench_text ~seed name =
  let c =
    if name = "c17" then Ser_circuits.Iscas.c17 ()
    else
      match Ser_circuits.Iscas.profile name with
      | Some p -> Ser_circuits.Iscas.synthesize ~seed p
      | None -> invalid_arg ("unknown profile " ^ name)
  in
  Ser_netlist.Bench_format.to_string c

let request ~seed ?charge ?vectors kind src =
  match kind with
  | Analyze_aserta -> Request.make ~backend:"aserta" ?charge ?vectors Request.Analyze src
  | Analyze_serpp -> Request.make ~backend:"serpp" ?charge ?vectors Request.Analyze src
  | Odc_op -> Request.make ~odc_mode:"sampled" ~odc_seed:seed ?vectors Request.Odc src
  | Optimize_exact -> Request.make Request.Optimize src
  | Optimize_tiered ->
    Request.make ~eval_tier:"serpp" ~tier_k:6 Request.Optimize src

(* [instances] netlists per profile, synthesized from disjoint seeds. *)
let sweep_items ~seed ~instances cases =
  List.concat_map
    (fun j ->
      let texts = Hashtbl.create 4 in
      List.map
        (fun (name, kind) ->
          let text =
            match Hashtbl.find_opt texts name with
            | Some t -> t
            | None ->
              let t = bench_text ~seed:(seed + (j * 1_000_003)) name in
              Hashtbl.replace texts name t;
              t
          in
          {
            label = Printf.sprintf "%s#%d/%s" name j (kind_name kind);
            kind;
            req = request ~seed kind (Request.Inline_bench text);
          })
        cases)
    (List.init instances Fun.id)

(* Every in-process op, per instance: analyze with both backends and odc
   on three circuits that differ in what baseline sizing costs (masking
   dominates ASERTA, sizing dominates serpp, odc skips sizing), then
   optimize, exact and tiered on the same circuit, where the incremental
   SERTOPT search dominates and masking and sizing are minor. Optimize on
   c880 is left out: its time varies 2.5x between seeds (4.1 s to 11.6 s
   at -j 1), which alone would spread the sweep's wall time by about 19%
   across seeds. *)
let sweep_cases =
  List.concat_map
    (fun c -> [ (c, Analyze_aserta); (c, Analyze_serpp); (c, Odc_op) ])
    [ "c432"; "c1355"; "c2670" ]
  @ [ ("c432", Optimize_exact); ("c432", Optimize_tiered) ]

(* ------------------------------- spans ---------------------------------- *)

type span = {
  s_name : string;
  s_req : int;
  s_parent : int;
  s_start : float;
  mutable s_end : float;
}

let spans : span list ref = ref [] (* newest first; index = creation order *)
let n_spans = ref 0
let open_spans : int list ref = ref []
let current_req = ref 0

let with_span name f =
  let id = !n_spans in
  incr n_spans;
  let s_parent = match !open_spans with p :: _ -> p | [] -> -1 in
  let s = { s_name = name; s_req = !current_req; s_parent; s_start = now (); s_end = nan } in
  spans := s :: !spans;
  open_spans := id :: !open_spans;
  Fun.protect
    ~finally:(fun () ->
      s.s_end <- now ();
      open_spans := List.tl !open_spans)
    f

let layers =
  [ "load"; "library"; "baseline_sizing"; "masking"; "electrical"; "serpp"; "odc";
    "sertopt"; "render" ]

(* ------------------------- layered request path ------------------------- *)

let ok = function Ok v -> v | Error d -> raise (Diag.Diag_error d)

(* [Analysis.run_checked]'s result check, applied after the separately
   timed masking and electrical calls. *)
let checked_electrical config lib asg masking =
  let t = Analysis.run_electrical config lib asg masking in
  let unreliability =
    Array.map
      (fun u ->
        if Float.is_finite u && u >= -1e-9 then Float.max 0. u
        else Diag.fail ~subsystem:"aserta" "bad per-gate unreliability %g" u)
      t.Analysis.unreliability
  in
  { t with Analysis.unreliability; total = Array.fold_left ( +. ) 0. unreliability }

let optimize_config (req : Request.t) =
  {
    Optimizer.default_config with
    Optimizer.aserta = { Analysis.default_config with Analysis.vectors = req.Request.vectors };
    max_evals = req.Request.evals;
    greedy_passes = req.Request.greedy;
    tier =
      (match req.Request.eval_tier with
      | "serpp" -> Optimizer.Serpp_prefilter req.Request.tier_k
      | _ -> Optimizer.Exact);
    odc_threshold = req.Request.odc_threshold;
  }

(* The body of [Handlers.run], one public call per layer, each under a
   span. Its payload must equal [Handlers.run]'s byte for byte. *)
let layered (req : Request.t) =
  Diag.guard ~subsystem:"perfbench" (fun () ->
      let load () = with_span "load" (fun () -> Handlers.load_circuit req.Request.source) in
      let library () =
        with_span "library" (fun () ->
            Handlers.make_library ~vdds:req.Request.vdds ~vths:req.Request.vths)
      in
      let sizing lib c =
        with_span "baseline_sizing" (fun () -> Optimizer.size_for_speed lib c)
      in
      let render f = with_span "render" (fun () -> Json.to_string (f ())) in
      match req.Request.op with
      | Request.Analyze ->
        let c = load () in
        let lib = library () in
        let assignment = sizing lib c in
        let result =
          if req.Request.backend = "serpp" then
            let config = { Serpp.default_config with Serpp.charge = req.Request.charge } in
            Handlers.Serpp
              (ok (with_span "serpp" (fun () -> Serpp.run_checked ~config lib assignment)))
          else
            let config = Handlers.aserta_config req in
            let masking = with_span "masking" (fun () -> Analysis.compute_masking config c) in
            Handlers.Aserta
              (with_span "electrical" (fun () ->
                   checked_electrical config lib assignment masking))
        in
        render (fun () -> Handlers.analyze_payload req { Handlers.assignment; result })
      | Request.Odc ->
        let c = load () in
        let config =
          {
            Odc.default with
            Odc.mode = Option.get (Odc.mode_of_string req.Request.odc_mode);
            vectors = req.Request.vectors;
            seed = req.Request.odc_seed;
          }
        in
        let r = ok (with_span "odc" (fun () -> Odc.analyze_checked ~config c)) in
        render (fun () -> Handlers.odc_payload req r)
      | Request.Optimize ->
        let c = load () in
        let lib = library () in
        let baseline = sizing lib c in
        let config = optimize_config req in
        let masking =
          with_span "masking" (fun () ->
              Analysis.compute_masking config.Optimizer.aserta c)
        in
        let r =
          with_span "sertopt" (fun () -> Optimizer.optimize ~config ~masking lib baseline)
        in
        render (fun () -> Handlers.optimize_payload req r)
      | Request.Rate -> Diag.fail ~subsystem:"perfbench" "rate is not benchmarked")

(* ------------------------------ checks ---------------------------------- *)

(* Domain checks on a payload beyond byte-identity: a positive finite
   SER estimate, a complete ODC classification, an optimization that
   never ends worse than its baseline. *)
let sane kind payload =
  match Json.of_string payload with
  | Error _ -> false
  | Ok p -> (
    let num k = Option.bind (Json.member k p) Json.to_float_opt in
    let finite = function Some x -> Float.is_finite x | None -> false in
    match kind with
    | Analyze_aserta | Analyze_serpp -> (
      match (num "total_unreliability", num "gates") with
      | Some u, Some g -> Float.is_finite u && u > 0. && g > 0.
      | _ -> false)
    | Odc_op -> (
      match (num "proven_masked", num "observed", num "sampled_unobserved", num "gates") with
      | Some a, Some b, Some c, Some g -> a +. b +. c = g && g > 0.
      | _ -> false)
    | Optimize_exact | Optimize_tiered -> (
      match (num "u_before", num "u_after", Json.member "degraded" p) with
      | Some b, Some a, Some (Json.Bool false) ->
        finite (num "delay_ratio") && a <= b && b > 0.
      | _ -> false))

let failures = ref 0
let attempted = ref 0

let fail_with fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      if !failures <= 20 then prerr_endline ("perfbench: " ^ msg))
    fmt

(* ------------------------------ counters -------------------------------- *)

let counter name = match Metrics.find_counter name with Some c -> Metrics.value c | None -> 0

let counter_names =
  [ "par.chunks"; "aserta.gate_evals"; "odc.sites_tested"; "odc.sites_proven";
    "serpp.gate_evals"; "sertopt.tier_rank_evals"; "sertopt.evals";
    "sertopt.improvements"; "incr.updates"; "incr.gates_recomputed";
    "incr.sta_recomputed"; "incr.sta_cutoff"; "incr.tables_recomputed";
    "incr.tables_cutoff"; "incr.full_rebuilds" ]

let read_counters () = List.map (fun n -> (n, counter n)) counter_names

(* ------------------------------ results --------------------------------- *)

(* name -> (value, unit); every reported metric goes through here *)
let results : (string * (float * string)) list ref = ref []
let report name unit v = results := (name, (v, unit)) :: List.remove_assoc name !results

let vm_hwm_mb pid =
  try
    let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          let line = input_line ic in
          if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f kB" (fun kb ->
                kb /. 1024.)
          else go ()
        in
        go ())
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ -> nan

(* --------------------------- sweep workloads ---------------------------- *)

type outcome = { o_item : item; o_secs : float; o_payload : (string, Diag.t) result }

(* Each request starts from a collected heap, as a one-shot sertool
   process does, so no request pays for its predecessor's garbage. *)
let run_plain it =
  Gc.full_major ();
  let t0 = now () in
  let r = Result.map Json.to_string (Handlers.run it.req) in
  { o_item = it; o_secs = now () -. t0; o_payload = r }

let run_traced idx it =
  current_req := idx;
  Gc.full_major ();
  let t0 = now () in
  let r = with_span ("op." ^ kind_name it.kind) (fun () -> layered it.req) in
  { o_item = it; o_secs = now () -. t0; o_payload = r }

(* Closed loop over [n] request slots, round-robin, until the measuring
   window is spent: every slot runs once, then each further request
   only if its slot's previous latency still fits in the window. Returns
   [exec i k] for every request [i] issued, [k = i mod n] its slot. *)
let cycle ~seconds n exec =
  let last = Array.make n 0. in
  let t0 = now () in
  let rec go i acc =
    let k = i mod n in
    if i >= n && now () -. t0 +. last.(k) > seconds then List.rev acc
    else begin
      let r0 = now () in
      let r = exec i k in
      last.(k) <- now () -. r0;
      go (i + 1) (r :: acc)
    end
  in
  go 0 []

let mean = function [] -> nan | xs -> sum xs /. float_of_int (List.length xs)

(* Outcome checks: no diagnostic, a sane payload, and the payload the
   slot's first request produced. *)
let check_plain first (k, o) =
  incr attempted;
  match o.o_payload with
  | Error d -> fail_with "%s: %s" o.o_item.label (Diag.to_string d)
  | Ok p -> (
    if not (sane o.o_item.kind p) then fail_with "%s: payload fails its checks" o.o_item.label;
    match Hashtbl.find_opt first k with
    | None -> Hashtbl.replace first k p
    | Some p0 -> if p <> p0 then fail_with "%s: payload changed between runs" o.o_item.label)

(* Mean latency of each request slot. *)
let slot_latency items outs =
  let per_slot k = mean (List.filter_map (fun (j, o) -> if j = k then Some o.o_secs else None) outs) in
  Array.mapi (fun k _ -> per_slot k) items

let latency_metrics secs =
  report "latency_geomean_ms" "ms" (1000. *. exp (mean (List.map log secs)));
  report "latency_p50_ms" "ms" (1000. *. quantile secs 0.5);
  report "latency_p90_ms" "ms" (1000. *. quantile secs 0.9)

let plain_metrics items outs =
  let slot = slot_latency items outs in
  report "wall_s" "s" (Array.fold_left ( +. ) 0. slot);
  latency_metrics (List.map (fun (_, o) -> o.o_secs) outs);
  Array.iteri (fun k it -> report ("item." ^ it.label ^ "_s") "s" slot.(k)) items;
  List.iter
    (fun kind ->
      let ks = List.filter (fun k -> items.(k).kind = kind) (List.init (Array.length items) Fun.id) in
      if ks <> [] then report (kind_name kind ^ "_s") "s" (sum (List.map (fun k -> slot.(k)) ks)))
    kinds;
  (* deterministic quality guards: mean over the optimize requests *)
  let quality =
    List.filter_map
      (fun (k, o) ->
        match (o.o_item.kind, o.o_payload) with
        | (Optimize_exact | Optimize_tiered), Ok p -> (
          match Json.of_string p with
          | Ok j -> (
            let num f = Option.bind (Json.member f j) Json.to_float_opt in
            match (num "u_before", num "u_after", num "delay_ratio") with
            | Some b, Some a, Some d -> Some (k, (1. -. (a /. b), d))
            | _ -> None)
          | Error _ -> None)
        | _ -> None)
      outs
    |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  if quality <> [] then begin
    report "u_reduction" "ratio" (mean (List.map fst quality));
    report "delay_ratio" "ratio" (mean (List.map snd quality))
  end

let layer_metrics ~passes =
  let spans = Array.of_list (List.rev !spans) in
  let child_time = Array.make (Array.length spans) 0. in
  Array.iter
    (fun s ->
      if s.s_parent >= 0 then
        child_time.(s.s_parent) <- child_time.(s.s_parent) +. (s.s_end -. s.s_start))
    spans;
  List.iter
    (fun l ->
      let mine = List.filter (fun s -> s.s_name = l) (Array.to_list spans) in
      report (l ^ ".busy_s") "s" (sum (List.map (fun s -> s.s_end -. s.s_start) mine) /. passes);
      report (l ^ ".calls") "count" (float_of_int (List.length mine) /. passes))
    layers;
  List.iter
    (fun k ->
      let roots = ref 0. and self = ref 0. in
      Array.iteri
        (fun i s ->
          if s.s_parent < 0 && s.s_name = "op." ^ kind_name k then begin
            roots := !roots +. (s.s_end -. s.s_start);
            self := !self +. (s.s_end -. s.s_start -. child_time.(i))
          end)
        spans;
      report ("untraced_frac." ^ kind_name k) "ratio" (if !roots > 0. then !self /. !roots else 0.))
    kinds

let counter_metrics ~passes deltas =
  let d n = float_of_int (List.assoc n deltas) in
  let ratio a b = if b > 0. then a /. b else 0. in
  List.iter
    (fun n -> report n "count" (d n /. passes))
    [ "par.chunks"; "aserta.gate_evals"; "odc.sites_tested"; "odc.sites_proven";
      "serpp.gate_evals"; "sertopt.tier_rank_evals"; "sertopt.evals"; "incr.updates";
      "incr.gates_recomputed"; "incr.full_rebuilds" ];
  report "sertopt.improvements_per_eval" "ratio" (ratio (d "sertopt.improvements") (d "sertopt.evals"));
  report "incr.cutoff_ratio" "ratio"
    (ratio
       (d "incr.sta_cutoff" +. d "incr.tables_cutoff")
       (d "incr.sta_recomputed" +. d "incr.tables_recomputed"))

let setup_reps = 21

let run_sweep ~seed ~seconds ~trace ~instances cases =
  let setups =
    List.init setup_reps (fun _ ->
        let t0 = now () in
        let items = sweep_items ~seed ~instances cases in
        (now () -. t0, items))
  in
  report "setup_s" "s" (median (List.map fst setups));
  let items = Array.of_list (snd (List.hd setups)) in
  let n = Array.length items in
  let first = Hashtbl.create 16 in
  if not trace then begin
    let outs = cycle ~seconds n (fun _ k -> (k, run_plain items.(k))) in
    List.iter (check_plain first) outs;
    plain_metrics items outs
  end
  else begin
    (* Every request runs twice, untraced through Handlers.run and
       traced through the layered path, alternating which goes first so
       neither side always meets the other's cache state. The two
       payloads must match byte for byte. *)
    let deltas = ref (List.map (fun n -> (n, 0)) counter_names) in
    let traced i it =
      let before = read_counters () in
      let o = run_traced i it in
      let after = read_counters () in
      deltas := List.map (fun (n, v) -> (n, v + List.assoc n after - List.assoc n before)) !deltas;
      o
    in
    let pairs =
      cycle ~seconds n (fun i k ->
          let it = items.(k) in
          if i mod 2 = 0 then
            let a = run_plain it in
            (k, a, traced i it)
          else
            let b = traced i it in
            (k, run_plain it, b))
    in
    let plain = List.map (fun (k, a, _) -> (k, a)) pairs in
    List.iter (check_plain first) plain;
    List.iter
      (fun (_, a, b) ->
        incr attempted;
        match (a.o_payload, b.o_payload) with
        | Ok pa, Ok pb when pa = pb -> ()
        | Ok _, Ok _ -> fail_with "%s: traced payload differs from Handlers.run" b.o_item.label
        | _, Error d -> fail_with "%s (traced): %s" b.o_item.label (Diag.to_string d)
        | Error _, Ok _ -> fail_with "%s: only the traced path succeeded" b.o_item.label)
      pairs;
    plain_metrics items plain;
    let wall = Array.fold_left ( +. ) 0. (slot_latency items plain) in
    let traced_wall =
      Array.fold_left ( +. ) 0. (slot_latency items (List.map (fun (k, _, b) -> (k, b)) pairs))
    in
    report "trace.wall_s" "s" traced_wall;
    report "trace.overhead_s" "s" (traced_wall -. wall);
    let passes = float_of_int (List.length pairs) /. float_of_int n in
    layer_metrics ~passes;
    counter_metrics ~passes !deltas
  end;
  report "peak_rss_mb" "MB" (vm_hwm_mb "self")

(* ------------------------------ serve-mix ------------------------------- *)

module Client = Ser_serve.Client
module Server = Ser_serve.Server
module Wire = Ser_serve.Wire

(* (profile, instance): three synthesized instances of each profile *)
let serve_circuits =
  [ ("c17", 0); ("c432", 0); ("c432", 1); ("c432", 2); ("c880", 0); ("c880", 1); ("c880", 2) ]
let setup_reps_serve = 11

(* A bounded cache, so the daemon's memory and its per-miss rewrite of
   cache.json level off early in the window. Hits repeat one of the
   [hit_window] most recent distinct requests: at most 2 * hit_window - 2
   other entries can be used after one of them was created, fewer than
   [cache_entries], so LRU eviction never turns an intended hit into a
   miss. *)
let cache_entries = 64
let hit_window = 32
let serve_kinds = [ Analyze_aserta; Analyze_serpp; Odc_op ]
let serve_vectors = [| 1000; 2000 |]
let hits_per_round = 42 (* beside one miss per (netlist, op): 2/3 hits *)

(* The [k]-th distinct request of one (circuit, op) pair; k = 0 primes
   the daemon. The charge walks a seeded permutation of 2401 values in
   [8, 32) fC and the odc seed grows with k, so every k is a new cache
   key on a netlist the daemon has already seen. *)
let serve_request ~seed text kind k =
  let src = Request.Inline_bench text in
  let charge = 8. +. (float_of_int ((abs seed * 7919 + k * 104729) mod 2401) /. 100.) in
  let vectors = serve_vectors.(k mod Array.length serve_vectors) in
  match kind with
  | Odc_op -> Request.make ~odc_mode:"sampled" ~odc_seed:((abs seed * 100003) + k) ~vectors Request.Odc src
  | _ -> request ~seed ~charge ~vectors kind src

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

type daemon = { pid : int; sock : string; dir : string }

let live_daemons : int list ref = ref []

let opts = { Client.default_opts with Client.retries = 0; request_timeout_s = 150. }

let start_daemon ~sertool dir =
  mkdir_p (Filename.concat dir "spool");
  let sock = Filename.concat dir "s.sock" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let args =
    [| sertool; "serve"; "--socket"; sock; "-j"; "1"; "--quiet";
       "--cache-dir"; Filename.concat dir "cache"; "--cache-entries"; string_of_int cache_entries;
       "--spool-dir"; Filename.concat dir "spool" |]
  in
  let env = Array.append [| "TMPDIR=" ^ Filename.concat dir "spool" |] (Unix.environment ()) in
  let pid = Unix.create_process_env sertool args env Unix.stdin log log in
  Unix.close log;
  live_daemons := pid :: !live_daemons;
  let d = { pid; sock; dir } in
  let deadline = now () +. 60. in
  let rec wait () =
    match Client.health ~opts (Server.Unix_sock sock) with
    | Ok _ -> Ok d
    | Error _ when now () > deadline -> Error "daemon not ready within 60 s"
    | Error _ -> (
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        Unix.sleepf 0.0005;
        wait ()
      | _ ->
        live_daemons := List.filter (( <> ) pid) !live_daemons;
        Error "daemon exited during start-up")
  in
  wait ()

(* SIGTERM must drain the daemon: exit status 0 and its socket removed. *)
let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  let deadline = now () +. 60. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid);
      fail_with "daemon %d did not drain within 60 s of SIGTERM" d.pid
    | _, Unix.WEXITED 0 ->
      if Sys.file_exists d.sock then fail_with "daemon %d left its socket behind" d.pid
    | _, _ -> fail_with "daemon %d exited uncleanly after SIGTERM" d.pid
  in
  incr attempted;
  wait ();
  live_daemons := List.filter (( <> ) d.pid) !live_daemons

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_daemons)

type sent = {
  rtt : float;
  server_s : float;
  miss : bool; (* the workload meant it as a cache miss *)
}

let health conn =
  match Client.conn_call conn (Json.Obj [ ("op", Json.Str "health") ]) with
  | Ok { Wire.r_status = Wire.Ok_payload p; _ } -> p
  | Ok _ | Error _ -> Json.Null

let path_num j path =
  Option.bind
    (List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path)
    Json.to_float_opt

let run_serve ~sertool ~out ~seed ~seconds ~trace =
  let tmp = Filename.concat out (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  (* every distinct request sent: key -> request, first payload, uses *)
  let store : (string * kind * int, Request.t * string * int ref) Hashtbl.t = Hashtbl.create 512 in
  let order = ref [] in
  let next_k = Hashtbl.create 16 in
  let send conn ((name, kind, _) as key) req ~miss =
    let t0 = now () in
    let r = Client.conn_call conn (Request.to_json req) in
    let rtt = now () -. t0 in
    incr attempted;
    match r with
    | Ok { Wire.r_status = Wire.Ok_payload p; r_elapsed_s; r_cache_hit; _ } ->
      let payload = Json.to_string p in
      if r_cache_hit = miss then
        fail_with "%s/%s: meant as a cache %s but served as a %s" name (kind_name kind)
          (if miss then "miss" else "hit") (if r_cache_hit then "hit" else "miss");
      (match Hashtbl.find_opt store key with
      | Some (_, p0, uses) ->
        incr uses;
        if p0 <> payload then fail_with "%s/%s: repeated request answered differently" name (kind_name kind)
      | None ->
        if not (sane kind payload) then fail_with "%s/%s: payload fails its checks" name (kind_name kind);
        Hashtbl.replace store key (req, payload, ref 1);
        order := key :: !order);
      Some { rtt; server_s = r_elapsed_s; miss }
    | Ok { Wire.r_status = Wire.Rejected (rej, msg, _); _ } ->
      fail_with "%s/%s: rejected (%s): %s" name (kind_name kind) (Wire.reject_to_string rej) msg;
      None
    | Error d ->
      fail_with "%s/%s: %s" name (kind_name kind) (Diag.to_string d);
      None
  in
  (* set-up: synthesize the netlists and start a daemon until it
     answers; the daemons of all but the last repetition are drained *)
  let times = ref [] and kept = ref None in
  for rep = 1 to setup_reps_serve do
    let t0 = now () in
    let texts =
      List.map
        (fun (name, j) ->
          (Printf.sprintf "%s#%d" name j, bench_text ~seed:(seed + (j * 1_000_003)) name))
        serve_circuits
    in
    match start_daemon ~sertool (Filename.concat tmp (Printf.sprintf "d%d" rep)) with
    | Error msg -> fail_with "%s" msg
    | Ok d ->
      times := (now () -. t0) :: !times;
      Option.iter (fun (d, _) -> stop_daemon d) !kept;
      kept := Some (d, texts)
  done;
  report "setup_s" "s" (median !times);
  (match !kept with
  | None -> ()
  | Some (d, texts) ->
    let conn = Client.conn ~opts (Server.Unix_sock d.sock) in
    (* untimed priming: one request per (netlist, op), so the window
       opens on a daemon that has seen every netlist *)
    List.iter
      (fun (name, text) ->
        List.iter
          (fun kind -> ignore (send conn (name, kind, 0) (serve_request ~seed text kind 0) ~miss:true))
          serve_kinds)
      texts;
    let rng = Random.State.make [| seed |] in
    let h0 = health conn in
    let round () =
      let slots =
        Array.append
          (Array.of_list
             (List.concat_map (fun (name, text) -> List.map (fun k -> Some (name, text, k)) serve_kinds) texts))
          (Array.make hits_per_round None)
      in
      for i = Array.length slots - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = slots.(i) in
        slots.(i) <- slots.(j);
        slots.(j) <- t
      done;
      Array.to_list slots
      |> List.filter_map (function
           | Some (name, text, kind) ->
             let k = 1 + Option.value ~default:0 (Hashtbl.find_opt next_k (name, kind)) in
             Hashtbl.replace next_k (name, kind) k;
             send conn (name, kind, k) (serve_request ~seed text kind k) ~miss:true
           | None ->
             let key = List.nth !order (Random.State.int rng (min hit_window (List.length !order))) in
             let req, _, _ = Hashtbl.find store key in
             send conn key req ~miss:false)
    in
    (* with tracing, every other round records client-side spans *)
    let rounds =
      cycle ~seconds 1 (fun i _ ->
          let t0 = now () in
          let traced = trace && i mod 2 = 1 in
          let outs =
            if traced then begin
              current_req := i;
              with_span "serve.round" round
            end
            else round ()
          in
          (traced, now () -. t0, outs))
    in
    let walls traced = List.filter_map (fun (t, w, _) -> if t = traced then Some w else None) rounds in
    let h1 = health conn in
    let sent = List.concat_map (fun (_, _, outs) -> outs) rounds in
    report "wall_s" "s" (mean (walls false));
    latency_metrics (List.map (fun s -> s.rtt) sent);
    report "peak_rss_mb" "MB" (vm_hwm_mb (string_of_int d.pid));
    if trace then begin
      let d_hits = path_num h1 [ "cache"; "hits" ] and h0_hits = path_num h0 [ "cache"; "hits" ] in
      let d_miss = path_num h1 [ "cache"; "misses" ] and h0_miss = path_num h0 [ "cache"; "misses" ] in
      (match (d_hits, h0_hits, d_miss, h0_miss) with
      | Some a, Some b, Some c, Some e when a -. b +. c -. e > 0. ->
        report "serve.hit_ratio" "ratio" ((a -. b) /. (a -. b +. c -. e))
      | _ -> fail_with "health document lacks cache counts");
      report "serve.server_p50_us" "us" (Option.value ~default:nan (path_num h1 [ "latency_us"; "p50_us" ]));
      report "serve.server_p99_us" "us" (Option.value ~default:nan (path_num h1 [ "latency_us"; "p99_us" ]));
      report "serve.wait_ms" "ms" (1000. *. median (List.map (fun s -> s.rtt -. s.server_s) sent));
      report "serve.miss_p50_ms" "ms"
        (1000. *. median (List.filter_map (fun s -> if s.miss then Some s.rtt else None) sent));
      report "serve.hit_p50_ms" "ms"
        (1000. *. median (List.filter_map (fun s -> if s.miss then None else Some s.rtt) sent));
      if walls true <> [] then begin
        let tw = mean (walls true) in
        report "trace.wall_s" "s" tw;
        report "trace.overhead_s" "s" (tw -. mean (walls false))
      end
    end;
    Client.conn_close conn;
    stop_daemon d);
  (* every distinct response against an in-process Handlers.run *)
  List.iter
    (fun ((name, kind, _) as key) ->
      let req, payload, uses = Hashtbl.find store key in
      match Handlers.run req with
      | Ok p when Json.to_string p = payload -> ()
      | Ok _ ->
        for _ = 1 to !uses do
          fail_with "%s/%s: serve payload differs from Handlers.run" name (kind_name kind)
        done
      | Error d -> fail_with "%s/%s (in-process): %s" name (kind_name kind) (Diag.to_string d))
    (List.rev !order);
  rm_rf tmp

(* -------------------------------- main ---------------------------------- *)

let benchmark_metrics section =
  let fail msg = failwith ("BENCHMARK.json: " ^ msg) in
  let doc =
    match Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) with
    | Ok d -> d
    | Error e -> fail e
  in
  match Option.bind (Json.member section doc) Json.to_list_opt with
  | None -> fail ("no " ^ section)
  | Some ms ->
    List.map
      (fun m ->
        match (Option.bind (Json.member "name" m) Json.to_str_opt, Option.bind (Json.member "unit" m) Json.to_str_opt) with
        | Some n, Some u -> (n, u)
        | _ -> fail ("malformed entry in " ^ section))
      ms

let json_str s = Json.to_string (Json.Str s)
let num v = Printf.sprintf "%.17g" v

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let sertool = ref "_build/default/bin/sertool.exe" and out = ref ".perfbench" in
  let rev = ref "unknown" and source_digest = ref "unknown" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME sweep | serve-mix");
      ("--seed", Arg.Set_int seed, "N workload seed (netlists and request mix)");
      ("--seconds", Arg.Set_float seconds, "S measuring window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--sertool", Arg.Set_string sertool, "PATH sertool binary for the serve daemon");
      ("--out", Arg.Set_string out, "DIR results, spans and daemon scratch");
      ("--rev", Arg.Set_string rev, "REV source revision, recorded with the results");
      ("--source-digest", Arg.Set_string source_digest, "HEX digest of the sources, recorded") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench [options]";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Ser_par.Par.set_jobs 1;
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  let wanted = benchmark_metrics (if traced then "per_layer" else "end_to_end") in
  mkdir_p !out;
  (match !workload with
  | "sweep" -> run_sweep ~seed ~seconds ~trace:traced ~instances:2 sweep_cases
  | "serve-mix" -> run_serve ~sertool:!sertool ~out:!out ~seed ~seconds ~trace:traced
  | w ->
    prerr_endline ("perfbench: unknown workload " ^ w);
    exit 2);
  let attempted = max 1 !attempted and failed = !failures in
  report "failed_frac" "ratio" (float_of_int failed /. float_of_int attempted);
  report "requests" "count" (float_of_int attempted);
  let provenance =
    [ ("workload", json_str !workload); ("seed", string_of_int seed);
      ("trace", string_of_int !trace); ("seconds", num seconds);
      ("jobs", string_of_int (Ser_par.Par.jobs ()));
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_str Sys.ocaml_version); ("rev", json_str !rev);
      ("source_digest", json_str !source_digest); ("host", json_str (Unix.gethostname ())) ]
  in
  let obj fields = "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) fields) ^ "}" in
  let metric_json (v, u) = obj [ ("value", num v); ("unit", json_str u) ] in
  let all = List.sort compare !results in
  print_endline ("provenance " ^ obj provenance);
  List.iter (fun (n, (v, u)) -> Printf.printf "metric %-34s %14.6g %s\n" n v u) all;
  let tag = Printf.sprintf "%s-seed%d-trace%d" !workload seed !trace in
  let write path text = Out_channel.with_open_bin path (fun oc -> output_string oc text) in
  mkdir_p (Filename.concat !out "results");
  write
    (Filename.concat !out (Filename.concat "results" (tag ^ ".json")))
    (obj
       [ ("provenance", obj provenance); ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ("metrics", obj (List.map (fun (n, m) -> (n, metric_json m)) all)) ]
    ^ "\n");
  if traced then begin
    mkdir_p (Filename.concat !out "spans");
    let span_json i s =
      obj
        [ ("id", string_of_int i); ("name", json_str s.s_name); ("req", string_of_int s.s_req);
          ("parent", string_of_int s.s_parent); ("start_s", num s.s_start); ("end_s", num s.s_end) ]
    in
    write
      (Filename.concat !out (Filename.concat "spans" (tag ^ ".json")))
      ("[\n" ^ String.concat ",\n" (List.mapi span_json (List.rev !spans)) ^ "\n]\n")
  end;
  (* metrics a workload does not exercise read 0 in the per-layer set *)
  let value n = match List.assoc_opt n all with Some (v, _) -> v | None -> 0. in
  let finite = List.for_all (fun (n, _) -> Float.is_finite (value n)) wanted in
  if not finite then prerr_endline "perfbench: a reported metric is not finite";
  print_endline
    (obj
       [ ("correct", if failed = 0 && finite then "true" else "false");
         ("attempted", string_of_int attempted); ("failed", string_of_int failed);
         ("metrics", obj (List.map (fun (n, u) -> (n, metric_json (value n, u))) wanted)) ])
