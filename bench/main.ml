(* Benchmark harness: regenerates every table and figure of the paper
   plus the ablations from DESIGN.md, and runs bechamel
   micro-benchmarks of the core kernels.

   Usage:
     dune exec bench/main.exe                 -- everything, quick profile
     dune exec bench/main.exe -- fig1         -- one experiment
     dune exec bench/main.exe -- table1-full  -- paper-scale budgets
     dune exec bench/main.exe -- micro        -- bechamel kernels *)

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '=')

let fig1 () =
  section "Figure 1 (generated glitch width vs gate knobs)";
  print_string (Ser_repro.Fig12.render (Ser_repro.Fig12.fig1 ()))

let fig2 () =
  section "Figure 2 (propagated glitch width vs gate knobs)";
  print_string (Ser_repro.Fig12.render (Ser_repro.Fig12.fig2 ()))

let fig3 ?(vectors = 5) () =
  section "Figure 3 (ASERTA vs golden transient, per-gate unreliability)";
  print_string (Ser_repro.Fig3.render (Ser_repro.Fig3.run ~vectors ()))

let table1 ?(effort = Ser_repro.Table1.Quick) ?(with_golden = false) ?only () =
  section "Table 1 (SERTOPT optimization results)";
  print_string
    (Ser_repro.Table1.render (Ser_repro.Table1.run ~effort ~with_golden ?only ()))

let runtime () =
  section "Runtime comparison (Section 5)";
  print_string (Ser_repro.Runtime.render (Ser_repro.Runtime.run ()))

let alternatives () =
  section "Extension: hardening alternatives (TMR / CED vs SERTOPT)";
  print_string (Ser_repro.Alternatives.render (Ser_repro.Alternatives.run ()))

let variation () =
  section "Extension: process-variation robustness";
  print_string (Ser_repro.Variation.render (Ser_repro.Variation.run ()))

let ser_rate () =
  section "Extension: charge-spectrum SER (FIT)";
  print_string (Ser_repro.Rate_study.render (Ser_repro.Rate_study.run ()))

let pipeline () =
  section "Extension: pipeline trends (frequency & super-pipelining)";
  print_string (Ser_repro.Pipeline_study.render (Ser_repro.Pipeline_study.run ()))

let ablations () =
  section "Ablation: Eq-2 successor split";
  print_string (Ser_repro.Ablation.pi_split ());
  section "Ablation: sample glitch widths";
  print_string (Ser_repro.Ablation.sample_count ());
  section "Ablation: optimizer composition";
  print_string (Ser_repro.Ablation.optimizer_variants ());
  section "Ablation: P_ij vector convergence";
  print_string (Ser_repro.Ablation.vector_convergence ());
  section "Ablation: injected charge";
  print_string (Ser_repro.Ablation.charge_sweep ());
  section "Ablation: masking backend";
  print_string (Ser_repro.Ablation.masking_backend ());
  section "Ablation: glitch propagation model";
  print_string (Ser_repro.Ablation.glitch_model ())

(* ------------------------------------------------------------------ *)
(* bechamel micro-benchmarks of the kernels                            *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Micro-benchmarks (bechamel)";
  let c432 = Ser_circuits.Iscas.load "c432" in
  let lib = Ser_cell.Library.create () in
  let asg = Ser_sta.Assignment.uniform lib c432 in
  let cfg = { Aserta.Analysis.default_config with Aserta.Analysis.vectors = 500 } in
  let masking = Aserta.Analysis.compute_masking cfg c432 in
  let timing = Ser_sta.Timing.analyze lib asg in
  let rng = Ser_rng.Rng.create 99 in
  let t_matrix, _ =
    let paths = Ser_sta.Paths.k_worst_paths asg timing ~k:32 in
    Ser_sta.Paths.topology_matrix asg paths
  in
  let vec =
    Array.init t_matrix.Ser_linalg.Matrix.cols (fun i ->
        float_of_int (i mod 7) -. 3.)
  in
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"eq1-glitch-propagate" (Staged.stage (fun () ->
          ignore (Aserta.Glitch.propagate ~delay:20. ~width:35.)));
      Test.make ~name:"sta-c432" (Staged.stage (fun () ->
          ignore (Ser_sta.Timing.analyze lib asg)));
      Test.make ~name:"aserta-electrical-c432" (Staged.stage (fun () ->
          ignore (Aserta.Analysis.run_electrical cfg lib asg masking)));
      Test.make ~name:"fault-sim-62-vectors-c432" (Staged.stage (fun () ->
          ignore
            (Ser_logicsim.Probs.path_probabilities ~rng ~vectors:62 c432)));
      Test.make ~name:"nullspace-projection-32paths" (Staged.stage (fun () ->
          ignore (Ser_linalg.Matrix.project_onto_nullspace t_matrix vec)));
      Test.make ~name:"logic-sim-62-vectors-c432" (Staged.stage (fun () ->
          ignore (Ser_logicsim.Bitsim.random_batch rng c432 ~n_patterns:62)));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 100) ()
  in
  let grouped = Test.make_grouped ~name:"kernels" tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let est =
        match Analyze.OLS.estimates result with
        | Some (e :: _) -> e
        | Some [] | None -> Float.nan
      in
      rows := (name, est) :: !rows)
    ols;
  List.iter
    (fun (name, est) -> Printf.printf "  %-40s %14.1f ns/run\n%!" name est)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)
(* parallel runtime: sequential vs pool, with machine-readable output   *)
(* ------------------------------------------------------------------ *)

let par_bench () =
  section "Parallel runtime (lib/par): sequential vs pool";
  let jobs = Ser_par.Par.jobs () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let checksum_probs (pp : Ser_logicsim.Probs.path_probs) =
    Array.fold_left
      (fun acc row -> Array.fold_left ( +. ) acc row)
      0. pp.Ser_logicsim.Probs.p
  in
  (* each case builds its whole world from scratch so the two runs are
     exact replicas; the returned checksum must be bit-identical *)
  let mc name vectors =
    ( Printf.sprintf "mc-path-probs-%s" name,
      fun () ->
        let c = Ser_circuits.Iscas.load name in
        let rng = Ser_rng.Rng.create 7 in
        checksum_probs
          (Ser_logicsim.Probs.path_probabilities ~rng ~vectors c) )
  in
  let aserta name vectors =
    ( Printf.sprintf "aserta-%s" name,
      fun () ->
        let c = Ser_circuits.Iscas.load name in
        let lib = Ser_cell.Library.create () in
        let asg = Ser_sta.Assignment.uniform lib c in
        let cfg =
          { Aserta.Analysis.default_config with Aserta.Analysis.vectors }
        in
        (Aserta.Analysis.run ~config:cfg lib asg).Aserta.Analysis.total )
  in
  let cases =
    [ mc "c2670" 256; mc "c5315" 128; aserta "c880" 300; aserta "c1355" 200 ]
  in
  (* The pool stats accumulate process-wide, so the two phases are run
     back to back with a reset in between: mixing them in one
     accumulator is what used to make the report claim
     [sequential_sections = sections] (every sequential-phase section
     inflated the count) even while the pool was demonstrably stealing
     chunks at -j > 1. *)
  Ser_par.Par.reset_stats ();
  Ser_par.Par.set_jobs 1;
  let seq_runs = List.map (fun (name, f) -> (name, time f)) cases in
  let seq_pool = Ser_par.Par.stats_json () in
  Ser_par.Par.reset_stats ();
  Ser_par.Par.set_jobs jobs;
  let par_runs = List.map (fun (name, f) -> (name, time f)) cases in
  let par_pool = Ser_par.Par.stats_json () in
  let rows =
    List.map2
      (fun (name, (seq_v, seq_s)) (_, (par_v, par_s)) ->
        if Int64.bits_of_float seq_v <> Int64.bits_of_float par_v then begin
          Printf.eprintf
            "FATAL: %s not deterministic across worker counts (%.17g vs %.17g)\n"
            name seq_v par_v;
          exit 1
        end;
        let speedup = seq_s /. Float.max 1e-9 par_s in
        Printf.printf "  %-24s seq %8.3f s   %d jobs %8.3f s   speedup %5.2fx\n%!"
          name seq_s jobs par_s speedup;
        Ser_util.Json.(
          Obj
            [
              ("name", Str name);
              ("seq_s", Num seq_s);
              ("par_s", Num par_s);
              ("speedup", Num speedup);
              ("checksum", Num seq_v);
            ]))
      seq_runs par_runs
  in
  (* the hardware context matters: on a single-core container the pool
     cannot beat sequential, and the numbers must say so honestly *)
  let recommended = Ser_par.Par.recommended_jobs () in
  let reasoning =
    Printf.sprintf
      "recommended_domains is Domain.recommended_domain_count on this host \
       (%d); it only seeds the default width. An explicit -j N > 1 always \
       engages the pool (this run: %d jobs in the parallel phase) — a \
       section runs inline only when the effective width is <= 1 or it is \
       nested inside another section. See pool_parallel_phase.sections vs \
       pool_sequential_phase.sequential_sections for the split."
      recommended jobs
  in
  let doc =
    Ser_util.Json.(
      Obj
        [
          ("jobs", int jobs);
          ("recommended_domains", int recommended);
          ("recommended_domains_reasoning", Str reasoning);
          ("cases", List rows);
          ("pool_sequential_phase", seq_pool);
          ("pool_parallel_phase", par_pool);
          ("pool", par_pool);
          ("metrics", Ser_obs.Obs.Metrics.snapshot ());
        ])
  in
  let oc = open_out "BENCH_par.json" in
  output_string oc (Ser_util.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote BENCH_par.json (jobs=%d, recommended=%d)\n" jobs
    recommended

(* ------------------------------------------------------------------ *)
(* SERTOPT: full-recompute vs incremental (lib/incr) evaluation        *)
(* ------------------------------------------------------------------ *)

let sertopt_bench ?(smoke = false) () =
  section "SERTOPT evaluation engine: full recompute vs incremental";
  let module Opt = Sertopt.Optimizer in
  let module Cost = Sertopt.Cost in
  let module Analysis = Aserta.Analysis in
  let module Assignment = Ser_sta.Assignment in
  let module Circuit = Ser_netlist.Circuit in
  let module Cell_params = Ser_device.Cell_params in
  let jobs = Ser_par.Par.jobs () in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  (* (name, vectors, max_evals, greedy_gates); identical seeds and
     configs for both modes, only [eval_mode] differs *)
  let cases =
    if smoke then [ ("c432", 300, 4, 4) ]
    else [ ("c880", 400, 8, 10); ("c1355", 400, 8, 10); ("c2670", 400, 8, 24) ]
  in
  Ser_par.Par.reset_stats ();
  let rows =
    List.map
      (fun (name, vectors, max_evals, greedy_gates) ->
        let c = Ser_circuits.Iscas.load name in
        let lib = Ser_cell.Library.create () in
        let baseline = Assignment.uniform lib c in
        let aserta = { Analysis.default_config with Analysis.vectors } in
        (* masking is assignment-independent: computed once, shared by
           both modes, excluded from the timed region *)
        let masking = Analysis.compute_masking aserta c in
        let config mode =
          {
            Opt.default_config with
            Opt.aserta;
            eval_mode = mode;
            max_evals;
            greedy_gates;
            greedy_passes = 1;
            annealing_steps = 0;
          }
        in
        let run mode () =
          Opt.optimize ~config:(config mode) ~masking lib baseline
        in
        let rf, full_s = time (run Opt.Full_recompute) in
        let ri, incr_s = time (run Opt.Incremental) in
        (* the two modes must be bit-identical end to end: same final
           assignment, same metrics, same improving-cost trace, same
           evaluation count *)
        let bits = Int64.bits_of_float in
        let fail fmt =
          Printf.ksprintf
            (fun msg ->
              Printf.eprintf "FATAL: %s: %s\n" name msg;
              exit 1)
            fmt
        in
        if rf.Opt.evals <> ri.Opt.evals then
          fail "eval counts differ (%d vs %d)" rf.Opt.evals ri.Opt.evals;
        if
          List.length rf.Opt.cost_trace <> List.length ri.Opt.cost_trace
          || not
               (List.for_all2
                  (fun a b -> bits a = bits b)
                  rf.Opt.cost_trace ri.Opt.cost_trace)
        then fail "cost traces differ";
        let mf = rf.Opt.optimized_metrics and mi = ri.Opt.optimized_metrics in
        if
          bits mf.Cost.unreliability <> bits mi.Cost.unreliability
          || bits mf.Cost.delay <> bits mi.Cost.delay
          || bits mf.Cost.energy <> bits mi.Cost.energy
          || bits mf.Cost.area <> bits mi.Cost.area
        then fail "optimized metrics differ";
        for id = 0 to Circuit.node_count c - 1 do
          if not (Circuit.is_input c id) then
            if
              not
                (Cell_params.equal
                   (Assignment.get rf.Opt.optimized id)
                   (Assignment.get ri.Opt.optimized id))
            then fail "optimized assignments differ at gate %d" id
        done;
        let checksum =
          Assignment.fold_gates rf.Opt.optimized
            ~init:mf.Cost.unreliability
            ~f:(fun acc _ (p : Cell_params.t) ->
              acc +. p.size +. p.length +. p.vdd +. p.vth)
        in
        let speedup = full_s /. Float.max 1e-9 incr_s in
        Printf.printf
          "  %-8s full %8.3f s   incremental %8.3f s   speedup %5.2fx   \
           (evals %d, reduction %.1f%%)\n%!"
          name full_s incr_s speedup rf.Opt.evals
          (100. *. Opt.unreliability_reduction rf);
        Ser_util.Json.(
          Obj
            [
              ("name", Str name);
              ("full_s", Num full_s);
              ("incr_s", Num incr_s);
              ("speedup", Num speedup);
              ("checksum", Num checksum);
            ]))
      cases
  in
  (* tiered greedy-menu evaluation: serpp prefilter (top-6 of every
     menu measured exactly) against exact menus, same seed and config
     otherwise. The prefilter must cut exact evaluations at least 2x
     on the big case while landing within 5% of the non-tiered final
     cost — the documented tolerance for --eval-tier serpp. *)
  section "SERTOPT greedy-menu tiering: exact menus vs serpp prefilter";
  let tiered =
    let name, vectors, max_evals, greedy_gates =
      if smoke then ("c432", 300, 4, 4) else ("c2670", 400, 8, 24)
    in
    let c = Ser_circuits.Iscas.load name in
    let lib = Ser_cell.Library.create () in
    let baseline = Assignment.uniform lib c in
    let aserta = { Analysis.default_config with Analysis.vectors } in
    let masking = Analysis.compute_masking aserta c in
    let config tier =
      {
        Opt.default_config with
        Opt.aserta;
        eval_mode = Opt.Incremental;
        tier;
        max_evals;
        greedy_gates;
        greedy_passes = 1;
        annealing_steps = 0;
      }
    in
    let saved_counter () =
      match Ser_obs.Obs.Metrics.find_counter "sertopt.exact_evals_saved" with
      | Some ctr -> Ser_obs.Obs.Metrics.value ctr
      | None -> 0
    in
    let fail fmt =
      Printf.ksprintf
        (fun msg ->
          Printf.eprintf "FATAL: %s tiering: %s\n" name msg;
          exit 1)
        fmt
    in
    let run tier () = Opt.optimize ~config:(config tier) ~masking lib baseline in
    let re, exact_s = time (run Opt.Exact) in
    let saved0 = saved_counter () in
    let rt, tiered_s = time (run (Opt.Serpp_prefilter 6)) in
    let exact_saved = saved_counter () - saved0 in
    let eval_ratio = float_of_int re.Opt.evals /. float_of_int (max 1 rt.Opt.evals) in
    let cost_of (r : Opt.result) =
      let d = Opt.default_config in
      Cost.eval ~weights:d.Opt.weights ~delay_slack:d.Opt.delay_slack
        ~baseline:re.Opt.baseline_metrics r.Opt.optimized_metrics
    in
    let cost_exact = cost_of re and cost_tiered = cost_of rt in
    let cost_rel_delta =
      (cost_tiered -. cost_exact) /. Float.max 1e-9 (Float.abs cost_exact)
    in
    if not smoke && eval_ratio < 2. then
      fail "exact-eval reduction %.2fx below the 2x floor" eval_ratio;
    if Float.abs cost_rel_delta > 0.05 then
      fail "tiered final cost drifts %.1f%% from exact (tolerance 5%%)"
        (100. *. cost_rel_delta);
    Printf.printf
      "  %-8s exact %4d evals %8.3f s   tiered %4d evals %8.3f s   \
       %.2fx fewer exact evals (saved %d, cost drift %+.2f%%)\n%!"
      name re.Opt.evals exact_s rt.Opt.evals tiered_s eval_ratio exact_saved
      (100. *. cost_rel_delta);
    Ser_util.Json.(
      Obj
        [
          ("name", Str name);
          ("tier_k", int 6);
          ("exact_evals", int re.Opt.evals);
          ("tiered_evals", int rt.Opt.evals);
          ("eval_ratio", Num eval_ratio);
          ("exact_evals_saved", int exact_saved);
          ("exact_s", Num exact_s);
          ("tiered_s", Num tiered_s);
          ("u_exact", Num re.Opt.optimized_metrics.Cost.unreliability);
          ("u_tiered", Num rt.Opt.optimized_metrics.Cost.unreliability);
          ("cost_rel_delta", Num cost_rel_delta);
        ])
  in
  let doc =
    Ser_util.Json.(
      Obj
        [
          ("jobs", int jobs);
          ("recommended_domains", int (Ser_par.Par.recommended_jobs ()));
          ("cases", List rows);
          ("tiered", tiered);
          ("pool", Ser_par.Par.stats_json ());
          ("metrics", Ser_obs.Obs.Metrics.snapshot ());
        ])
  in
  let file = if smoke then "BENCH_sertopt_smoke.json" else "BENCH_sertopt.json" in
  let oc = open_out file in
  output_string oc (Ser_util.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote %s (jobs=%d)\n" file jobs

let all () =
  fig1 ();
  fig2 ();
  fig3 ();
  table1 ();
  runtime ();
  ablations ();
  alternatives ();
  variation ();
  ser_rate ();
  pipeline ();
  par_bench ();
  micro ()

(* ------------------------------------------------------------------ *)
(* Batch supervisor (lib/jobs): isolation overhead and throughput      *)
(* ------------------------------------------------------------------ *)

let jobs_bench () =
  section "Batch supervisor (lib/jobs): process isolation overhead";
  let module Supervisor = Ser_jobs.Supervisor in
  let module Journal = Ser_jobs.Journal in
  let n = 24 in
  let jobs =
    List.init n (fun i ->
        Supervisor.job
          ~id:(Printf.sprintf "j%03d" i)
          [|
            "/bin/sh"; "-c"; Printf.sprintf {|printf '{"ok":true,"result":%d}'|} i;
          |])
  in
  let run_with parallel =
    let path = Filename.temp_file "bench_jobs" ".journal" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let cfg =
          {
            Supervisor.default_config with
            Supervisor.parallel;
            timeout_s = 30.;
            retries = 0;
          }
        in
        match Journal.create path with
        | Error d ->
          Printf.eprintf "FATAL: %s\n" (Ser_util.Diag.to_string d);
          exit 1
        | Ok j ->
          Fun.protect
            ~finally:(fun () -> Journal.close j)
            (fun () ->
              let t0 = Unix.gettimeofday () in
              match Supervisor.run cfg ~journal:j jobs with
              | Error d ->
                Printf.eprintf "FATAL: %s\n" (Ser_util.Diag.to_string d);
                exit 1
              | Ok s ->
                let dt = Unix.gettimeofday () -. t0 in
                if s.Supervisor.ok <> n then begin
                  Printf.eprintf "FATAL: lost jobs (ok=%d of %d)\n"
                    s.Supervisor.ok n;
                  exit 1
                end;
                dt))
  in
  let width = max 2 (Ser_par.Par.jobs ()) in
  let widths = List.sort_uniq compare [ 1; 2; width ] in
  let rows =
    List.map
      (fun parallel ->
        let dt = run_with parallel in
        let throughput = float_of_int n /. Float.max 1e-9 dt in
        Printf.printf "  parallel=%-2d  %6.3f s   %6.1f jobs/s\n%!" parallel dt
          throughput;
        Ser_util.Json.(
          Obj
            [
              ("parallel", int parallel);
              ("seconds", Num dt);
              ("throughput_jobs_per_s", Num throughput);
            ]))
      widths
  in
  let doc =
    Ser_util.Json.(
      Obj [ ("jobs_per_batch", int n); ("journal", Str "fsync-per-record");
            ("widths", List rows);
            ("metrics", Ser_obs.Obs.Metrics.snapshot ()) ])
  in
  let oc = open_out "BENCH_jobs.json" in
  output_string oc (Ser_util.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote BENCH_jobs.json\n"

(* ------------------------------------------------------------------ *)
(* Sharded sweeps (lib/jobs): merge cost and single-host equivalence   *)
(* ------------------------------------------------------------------ *)

let shard_bench () =
  section "Sharded sweeps (lib/jobs): split/merge vs single-host";
  let module Supervisor = Ser_jobs.Supervisor in
  let module Journal = Ser_jobs.Journal in
  let module Shard = Ser_jobs.Shard in
  let module Merge = Ser_jobs.Merge in
  let n = 48 in
  let jobs =
    List.init n (fun i ->
        Supervisor.job
          ~id:(Printf.sprintf "j%03d" i)
          [|
            "/bin/sh"; "-c"; Printf.sprintf {|printf '{"ok":true,"result":%d}'|} i;
          |])
  in
  let ids = List.map (fun (j : Supervisor.job) -> j.Supervisor.id) jobs in
  let cfg =
    {
      Supervisor.default_config with
      Supervisor.parallel = max 2 (Ser_par.Par.jobs ());
      timeout_s = 30.;
      retries = 0;
    }
  in
  let tmp suffix =
    let p = Filename.temp_file "bench_shard" suffix in
    at_exit (fun () -> try Sys.remove p with Sys_error _ -> ());
    p
  in
  let run ?shard path job_list =
    match Journal.create path with
    | Error d ->
      Printf.eprintf "FATAL: %s\n" (Ser_util.Diag.to_string d);
      exit 1
    | Ok j ->
      Fun.protect
        ~finally:(fun () -> Journal.close j)
        (fun () ->
          match Supervisor.run ?shard cfg ~journal:j job_list with
          | Error d ->
            Printf.eprintf "FATAL: %s\n" (Ser_util.Diag.to_string d);
            exit 1
          | Ok _ -> ())
  in
  let doc_of_journal path =
    match Journal.replay path with
    | Error d ->
      Printf.eprintf "FATAL: %s\n" (Ser_util.Diag.to_string d);
      exit 1
    | Ok st ->
      Ser_util.Json.to_string ~indent:false (Journal.final_results_json st)
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let single = tmp ".journal" in
  let (), single_s = time (fun () -> run single jobs) in
  let expected = doc_of_journal single in
  let rows =
    List.map
      (fun shards ->
        let paths = List.init shards (fun _ -> tmp ".journal") in
        let (), sweep_s =
          time (fun () ->
              List.iteri
                (fun i path ->
                  let mine =
                    Shard.select { Shard.index = i; count = shards }
                      ~id:(fun (j : Supervisor.job) -> j.Supervisor.id)
                      jobs
                  in
                  run ~shard:(i, shards) path mine)
                paths)
        in
        let merged, merge_s =
          time (fun () ->
              match Merge.load paths with
              | Error d ->
                Printf.eprintf "FATAL: %s\n" (Ser_util.Diag.to_string d);
                exit 1
              | Ok sources ->
                let r =
                  Merge.merge
                    ~expect:{ Merge.e_jobs = ids; e_shards = shards }
                    sources
                in
                (match Merge.integrity_error r with
                | Some d ->
                  Printf.eprintf "FATAL: %s\n" (Ser_util.Diag.to_string d);
                  exit 1
                | None -> ());
                if r.Merge.degraded then begin
                  Printf.eprintf "FATAL: merge degraded at %d shards\n" shards;
                  exit 1
                end;
                Ser_util.Json.to_string ~indent:false (Merge.results_json r))
        in
        if not (String.equal expected merged) then begin
          Printf.eprintf
            "FATAL: merged document differs from single-host at %d shards\n"
            shards;
          exit 1
        end;
        Printf.printf
          "  shards=%-2d  sweep %6.3f s   merge %8.5f s   (single-host %6.3f \
           s, bit-identical)\n%!"
          shards sweep_s merge_s single_s;
        Ser_util.Json.(
          Obj
            [
              ("shards", int shards);
              ("sweep_s", Num sweep_s);
              ("merge_s", Num merge_s);
              ("bit_identical", Bool true);
            ]))
      [ 2; 4; 8 ]
  in
  let doc =
    Ser_util.Json.(
      Obj
        [
          ("jobs_per_batch", int n);
          ("single_host_s", Num single_s);
          ("sweeps", List rows);
          ("metrics", Ser_obs.Obs.Metrics.snapshot ());
        ])
  in
  let oc = open_out "BENCH_shard.json" in
  output_string oc (Ser_util.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote BENCH_shard.json\n"

(* ------------------------------------------------------------------ *)
(* Serve daemon (lib/serve): cold path vs content-addressed cache hit  *)
(* ------------------------------------------------------------------ *)

let serve_bench () =
  section "Serve daemon (lib/serve): cold vs cache-hit latency";
  let module Server = Ser_serve.Server in
  let module Client = Ser_serve.Client in
  let module Wire = Ser_serve.Wire in
  let module Request = Ser_cli.Request in
  let dir = Filename.temp_file "bench_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "d.sock" in
      let cfg =
        { (Server.default ~socket) with Server.spool_dir = Some dir }
      in
      let pid =
        match Unix.fork () with
        | 0 ->
          (try
             Ser_par.Par.set_jobs 1;
             let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0o644 in
             Unix.dup2 devnull Unix.stdout;
             Unix.dup2 devnull Unix.stderr;
             Unix.close devnull;
             ignore (Server.run cfg)
           with _ -> ());
          Unix._exit 0
        | pid -> pid
      in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        (fun () ->
          let addr = Server.Unix_sock socket in
          if not (Client.wait_ready addr) then begin
            Printf.eprintf "FATAL: serve daemon did not come up\n";
            exit 1
          end;
          let circuit = "c432" and vectors = 1000 in
          let req =
            Request.to_json
              (Request.make ~vectors Request.Analyze (Request.Spec circuit))
          in
          let timed_call expect_hit =
            let t0 = Unix.gettimeofday () in
            match Client.call addr req with
            | Error d ->
              Printf.eprintf "FATAL: %s\n" (Ser_util.Diag.to_string d);
              exit 1
            | Ok r -> (
              match r.Wire.r_status with
              | Wire.Rejected (k, msg, _) ->
                Printf.eprintf "FATAL: rejected (%s): %s\n"
                  (Wire.reject_to_string k) msg;
                exit 1
              | Wire.Ok_payload _ ->
                if r.Wire.r_cache_hit <> expect_hit then begin
                  Printf.eprintf "FATAL: cache_hit=%b, expected %b\n"
                    r.Wire.r_cache_hit expect_hit;
                  exit 1
                end;
                Unix.gettimeofday () -. t0)
          in
          let cold_s = timed_call false in
          let n = 20 in
          let hits =
            Array.init n (fun _ -> timed_call true)
          in
          Array.sort compare hits;
          let hit_median_s = hits.(n / 2) in
          let hit_max_s = hits.(n - 1) in
          let speedup = cold_s /. Float.max 1e-9 hit_median_s in
          Printf.printf
            "  %s, %d vectors: cold %.4f s, hit median %.6f s (max %.6f s), \
             %.0fx\n%!"
            circuit vectors cold_s hit_median_s hit_max_s speedup;
          let doc =
            Ser_util.Json.(
              Obj
                [
                  ("circuit", Str circuit);
                  ("vectors", int vectors);
                  ("hit_samples", int n);
                  ("cold_s", Num cold_s);
                  ("hit_median_s", Num hit_median_s);
                  ("hit_max_s", Num hit_max_s);
                  ("speedup", Num speedup);
                ])
          in
          let oc = open_out "BENCH_serve.json" in
          output_string oc (Ser_util.Json.to_string doc);
          output_string oc "\n";
          close_out oc;
          Printf.printf "  wrote BENCH_serve.json\n"))

let odc_bench () =
  section "ODC (lib/odc): discovery, prune speedup, optimizer seeding";
  let module Odc = Ser_odc.Odc in
  let module Analysis = Aserta.Analysis in
  let module Circuit = Ser_netlist.Circuit in
  let fail d = failwith (Ser_util.Diag.to_string d) in
  (* TMR gives provable don't-cares with small supports: each replica
     gate is masked by its voter, exhaustively, over <= 5 inputs *)
  let c = Ser_harden.Transforms.tmr (Ser_circuits.Iscas.load "c17") in
  let report = Odc.analyze ~config:{ Odc.default with Odc.vectors = 2000 } c in
  let proven = Odc.n_proven report in
  Printf.printf "  %s: %d sites -> %d proven masked, %d observed, %d sampled\n"
    c.Circuit.name
    (Array.length report.Odc.sites)
    proven (Odc.n_observed report) (Odc.n_sampled report);
  if proven = 0 then begin
    Printf.eprintf "FATAL: TMR circuit has no provably-masked gates\n";
    exit 1
  end;
  let lib = Ser_cell.Library.create () in
  let asg = Sertopt.Optimizer.size_for_speed lib c in
  let config = { Analysis.default_config with Analysis.vectors = 60_000 } in
  let time f =
    let t0 = Ser_util.Mono.now () in
    let r = f () in
    (r, Ser_util.Mono.now () -. t0)
  in
  let a_plain, t_plain = time (fun () -> Analysis.run ~config lib asg) in
  let prune =
    match Odc.prune_set c report with Ok p -> p | Error d -> fail d
  in
  let a_pruned, t_pruned = time (fun () -> Analysis.run ~config ~prune lib asg) in
  (* the whole point of the prune: bit-identical, only faster *)
  let identical =
    Int64.bits_of_float a_plain.Analysis.total
      = Int64.bits_of_float a_pruned.Analysis.total
    && Array.for_all2
         (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
         a_plain.Analysis.unreliability a_pruned.Analysis.unreliability
  in
  if not identical then begin
    Printf.eprintf "FATAL: pruned analysis is not bit-identical\n";
    exit 1
  end;
  let speedup = t_plain /. Float.max 1e-9 t_pruned in
  Printf.printf
    "  analysis (%d vectors): unpruned %.3f s, pruned %.3f s (%.2fx, \
     bit-identical)\n"
    config.Analysis.vectors t_plain t_pruned speedup;
  (* optimizer seeding: start from a mid-size baseline so low-obs gates
     actually have smaller variants to fall to *)
  let obs = match Odc.obs_array c report with Ok o -> o | Error d -> fail d in
  let mid = Ser_sta.Assignment.uniform lib c in
  for id = 0 to Circuit.node_count c - 1 do
    if not (Circuit.is_input c id) then begin
      let nd = Circuit.node c id in
      let menu =
        Ser_cell.Library.variants lib nd.Circuit.kind
          (Array.length nd.Circuit.fanin)
        |> List.sort (fun a b ->
               compare a.Ser_device.Cell_params.size b.Ser_device.Cell_params.size)
      in
      match List.nth_opt menu (List.length menu / 2) with
      | Some p -> Ser_sta.Assignment.set mid id p
      | None -> ()
    end
  done;
  let v name =
    match Ser_obs.Obs.Metrics.find_counter name with
    | Some ctr -> Ser_obs.Obs.Metrics.value ctr
    | None -> 0
  in
  let moves0 = v "sertopt.odc_moves" and acc0 = v "sertopt.odc_accepts" in
  let cfg =
    {
      Sertopt.Optimizer.default_config with
      Sertopt.Optimizer.aserta =
        { Analysis.default_config with Analysis.vectors = 1000 };
      max_evals = 10;
      greedy_passes = 0;
      annealing_steps = 0;
      replay_guard = 0;
      odc_obs = Some obs;
      odc_threshold = 0.05;
    }
  in
  let r = Sertopt.Optimizer.optimize ~config:cfg lib mid in
  let moves = v "sertopt.odc_moves" - moves0 in
  let accepts = v "sertopt.odc_accepts" - acc0 in
  Printf.printf
    "  odc-seeded downsizing: %d candidates proposed, %d accepted (U %.1f -> \
     %.1f)\n"
    moves accepts
    r.Sertopt.Optimizer.baseline_metrics.Sertopt.Cost.unreliability
    r.Sertopt.Optimizer.optimized_metrics.Sertopt.Cost.unreliability;
  let doc =
    Ser_util.Json.(
      Obj
        [
          ("circuit", Str c.Circuit.name);
          ("sites", int (Array.length report.Odc.sites));
          ("proven_masked", int proven);
          ("observed", int (Odc.n_observed report));
          ("sampled_unobserved", int (Odc.n_sampled report));
          ("vectors", int config.Analysis.vectors);
          ("unpruned_s", Num t_plain);
          ("pruned_s", Num t_pruned);
          ("speedup", Num speedup);
          ("bit_identical", Bool identical);
          ("odc_moves", int moves);
          ("odc_accepts", int accepts);
        ])
  in
  let oc = open_out "BENCH_odc.json" in
  output_string oc (Ser_util.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote BENCH_odc.json\n"

let git_rev () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | ic ->
    let rev = try input_line ic with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when rev <> "" -> rev
    | _ -> "unknown")
  | exception Unix.Unix_error _ -> "unknown"

let sizing_bench () =
  section "Baseline sizing (Optimizer.size_for_speed on the incremental STA)";
  let module Metrics = Ser_obs.Obs.Metrics in
  let v name =
    match Metrics.find_counter name with
    | Some ctr -> Metrics.value ctr
    | None -> 0
  in
  let lib = Ser_cell.Library.create () in
  let rows =
    List.map
      (fun name ->
        let c = Ser_circuits.Iscas.load name in
        let trials0 = v "sizing.trials" and evals0 = v "sizing.gate_evals" in
        let asg = Sertopt.Optimizer.size_for_speed lib c in
        let trials = v "sizing.trials" - trials0 in
        let evals = v "sizing.gate_evals" - evals0 in
        (* median of 5 timed runs after the counted one *)
        let times =
          Array.init 5 (fun _ ->
              let t0 = Ser_util.Mono.now () in
              ignore (Sertopt.Optimizer.size_for_speed lib c);
              Ser_util.Mono.now () -. t0)
        in
        Array.sort compare times;
        let ms = 1000. *. times.(2) in
        let delay = (Ser_sta.Timing.analyze lib asg).Ser_sta.Timing.critical_delay in
        Printf.printf
          "  %-6s %5d gates: %8.2f ms, %5d trials, %8d gate evals, \
           critical delay %.1f ps\n%!"
          name (Ser_netlist.Circuit.gate_count c) ms trials evals delay;
        Ser_util.Json.(
          Obj
            [
              ("circuit", Str name);
              ("gates", int (Ser_netlist.Circuit.gate_count c));
              ("ms", Num ms);
              ("sizing.trials", int trials);
              ("sizing.gate_evals", int evals);
              ("critical_delay_ps", Num delay);
            ]))
      [ "c432"; "c880"; "c2670"; "c5315"; "c7552" ]
  in
  let doc =
    Ser_util.Json.(
      Obj
        [
          ("nproc", int (Domain.recommended_domain_count ()));
          ("ocaml", Str Sys.ocaml_version);
          ("git_rev", Str (git_rev ()));
          ("jobs", int (Ser_par.Par.jobs ()));
          ("circuits", List rows);
        ])
  in
  let oc = open_out "BENCH_sizing.json" in
  output_string oc (Ser_util.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  wrote BENCH_sizing.json\n"

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* a leading "-j N" pins the pool width for every target *)
  let args =
    match args with
    | "-j" :: n :: rest ->
      (match int_of_string_opt n with
      | Some j when j >= 0 -> Ser_par.Par.set_jobs j
      | _ ->
        Printf.eprintf "bad -j value %S (want an integer >= 0)\n" n;
        exit 2);
      rest
    | _ -> args
  in
  match args with
  | [] | [ "all" ] -> all ()
  | [ "fig1" ] -> fig1 ()
  | [ "fig2" ] -> fig2 ()
  | [ "fig3" ] -> fig3 ~vectors:10 ()
  | [ "table1" ] -> table1 ()
  | [ "table1-golden" ] -> table1 ~with_golden:true ()
  | [ "table1-full" ] -> table1 ~effort:Ser_repro.Table1.Full ()
  | "table1" :: names -> table1 ~only:names ()
  | [ "runtime" ] -> runtime ()
  | [ "ablations" ] -> ablations ()
  | [ "ablation-pi" ] -> print_string (Ser_repro.Ablation.pi_split ())
  | [ "ablation-samples" ] -> print_string (Ser_repro.Ablation.sample_count ())
  | [ "ablation-opt" ] -> print_string (Ser_repro.Ablation.optimizer_variants ())
  | [ "ablation-vectors" ] ->
    print_string (Ser_repro.Ablation.vector_convergence ())
  | [ "ablation-charge" ] -> print_string (Ser_repro.Ablation.charge_sweep ())
  | [ "ablation-masking" ] -> print_string (Ser_repro.Ablation.masking_backend ())
  | [ "ablation-model" ] -> print_string (Ser_repro.Ablation.glitch_model ())
  | [ "alternatives" ] -> alternatives ()
  | [ "variation" ] -> variation ()
  | [ "ser-rate" ] -> ser_rate ()
  | [ "pipeline" ] -> pipeline ()
  | [ "micro" ] -> micro ()
  | [ "par" ] -> par_bench ()
  | [ "sertopt" ] -> sertopt_bench ()
  | [ "sertopt-smoke" ] -> sertopt_bench ~smoke:true ()
  | [ "jobs" ] -> jobs_bench ()
  | [ "shard" ] -> shard_bench ()
  | [ "serve" ] -> serve_bench ()
  | [ "odc" ] -> odc_bench ()
  | [ "sizing" ] -> sizing_bench ()
  | other ->
    Printf.eprintf
      "unknown bench target %s\n\
       usage: main.exe [-j N] TARGET\n\
       targets: all fig1 fig2 fig3 table1 [circuits...] table1-golden \
       table1-full runtime ablations \
       ablation-{pi,samples,opt,vectors,charge,masking,model} \
       alternatives variation ser-rate pipeline micro par sertopt \
       sertopt-smoke jobs shard serve odc sizing\n"
      (String.concat " " other);
    exit 2
