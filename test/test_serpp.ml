module Serpp = Ser_serpp.Serpp
module Xval = Ser_repro.Xval
module Circuit = Ser_netlist.Circuit
module Bench = Ser_netlist.Bench_format
module L = Ser_cell.Library
module Request = Ser_cli.Request
module Json = Ser_util.Json

let lib = lazy (L.create ())

let sized circuit =
  let l = Lazy.force lib in
  (l, Sertopt.Optimizer.size_for_speed l circuit)

let sized_bench name = sized (Ser_circuits.Iscas.load name)

(* relative closeness: declaration order is only guaranteed invariant
   up to float-rounding noise in the shared STA pass *)
let rel_close a b =
  Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

(* ------------------------- directed runs -------------------------- *)

let test_run_basic () =
  let l, asg = sized_bench "c17" in
  let t = Serpp.run l asg in
  Alcotest.(check bool) "total positive" true (t.Serpp.total > 0.);
  Alcotest.(check bool) "total finite" true (Float.is_finite t.Serpp.total);
  let c = t.Serpp.circuit in
  let sum = ref 0. in
  Array.iteri
    (fun id u ->
      sum := !sum +. u;
      if Circuit.is_input c id then
        Alcotest.(check (float 0.)) "PI contributes nothing" 0. u)
    t.Serpp.estimate;
  Alcotest.(check (float 1e-9)) "total is the per-gate sum" t.Serpp.total !sum

let test_deterministic () =
  let l, asg = sized_bench "c432" in
  let t1 = Serpp.run l asg and t2 = Serpp.run l asg in
  Alcotest.(check bool) "totals bit-identical" true
    (Int64.equal (Int64.bits_of_float t1.Serpp.total)
       (Int64.bits_of_float t2.Serpp.total));
  Alcotest.(check bool) "per-gate bit-identical" true
    (Array.for_all2
       (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
       t1.Serpp.estimate t2.Serpp.estimate)

let test_checked_rejects_bad_config () =
  let l, asg = sized_bench "c17" in
  let expect_error label config =
    match Serpp.run_checked ~config l asg with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" label
  in
  expect_error "negative charge"
    { Serpp.default_config with Serpp.charge = -1. };
  expect_error "one sample" { Serpp.default_config with Serpp.n_samples = 1 };
  expect_error "non-finite sample ceiling"
    { Serpp.default_config with Serpp.max_sample_width = Float.nan };
  expect_error "non-positive latch window"
    { Serpp.default_config with Serpp.latch_window = Some 0. };
  match Serpp.run_checked l asg with
  | Ok t -> Alcotest.(check bool) "default config passes" true (t.Serpp.total > 0.)
  | Error d -> Alcotest.failf "default config rejected: %s" (Ser_util.Diag.to_string d)

let test_latch_window_derates () =
  let l, asg = sized_bench "c432" in
  let full = Serpp.run l asg in
  let derated =
    Serpp.run
      ~config:{ Serpp.default_config with Serpp.latch_window = Some 20. }
      l asg
  in
  Alcotest.(check bool) "derated total below full-width total" true
    (derated.Serpp.total < full.Serpp.total);
  Alcotest.(check bool) "derated cap below full cap" true
    (derated.Serpp.context.Serpp.profile_cap < full.Serpp.context.Serpp.profile_cap)

(* ------------------------- qcheck properties ----------------------- *)

let bounded_prop =
  QCheck.Test.make ~count:20
    ~name:"serpp estimates finite and within [0, gate bound]"
    QCheck.(float_range 4. 40.)
    (fun charge ->
      let l, asg = sized_bench "c17" in
      let t =
        Serpp.run ~config:{ Serpp.default_config with Serpp.charge } l asg
      in
      let n = Array.length t.Serpp.estimate in
      Float.is_finite t.Serpp.total
      && t.Serpp.total >= 0.
      && List.for_all
           (fun id ->
             let u = t.Serpp.estimate.(id) in
             Float.is_finite u && u >= 0.
             && u <= Serpp.gate_bound t id +. 1e-9)
           (List.init n Fun.id))

let c17_text = lazy (Bench.to_string (Ser_circuits.Iscas.load "c17"))

let shuffle_lines seed text =
  let lines =
    List.filter (fun l -> String.trim l <> "")
      (String.split_on_char '\n' text)
  in
  let a = Array.of_list lines in
  let st = Random.State.make [| seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  String.concat "\n" (Array.to_list a) ^ "\n"

let estimates_by_name t =
  let c = t.Serpp.circuit in
  List.init (Array.length t.Serpp.estimate) (fun id ->
      ((Circuit.node c id).Circuit.name, t.Serpp.estimate.(id)))
  |> List.sort compare

let order_invariance_prop =
  QCheck.Test.make ~count:30
    ~name:"estimates invariant under gate declaration order"
    QCheck.small_int
    (fun seed ->
      let text = Lazy.force c17_text in
      match
        (Bench.parse_string text, Bench.parse_string (shuffle_lines seed text))
      with
      | Ok c1, Ok c2 ->
        let l1, a1 = sized c1 and l2, a2 = sized c2 in
        let t1 = Serpp.run l1 a1 and t2 = Serpp.run l2 a2 in
        rel_close t1.Serpp.total t2.Serpp.total
        && List.for_all2
             (fun (n1, u1) (n2, u2) -> n1 = n2 && rel_close u1 u2)
             (estimates_by_name t1) (estimates_by_name t2)
      | _ -> QCheck.Test.fail_report "shuffled c17 no longer parses")

(* --------------------- cross-validation floors --------------------- *)

let test_xval_c432 () =
  let r = Xval.run ~circuit:"c432" ~vectors:2000 () in
  Alcotest.(check bool)
    (Printf.sprintf "c432 pearson %.3f >= 0.95" r.Xval.pearson)
    true (r.Xval.pearson >= 0.95);
  Alcotest.(check bool)
    (Printf.sprintf "c432 top-10 overlap %d >= 7" r.Xval.top_overlap)
    true (r.Xval.top_overlap >= 7)

let test_xval_c880 () =
  let r = Xval.run ~circuit:"c880" ~vectors:2000 () in
  Alcotest.(check bool)
    (Printf.sprintf "c880 pearson %.3f >= 0.9" r.Xval.pearson)
    true (r.Xval.pearson >= 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "c880 top-10 overlap %d >= 5" r.Xval.top_overlap)
    true (r.Xval.top_overlap >= 5)

let test_xval_json_stable () =
  let r = Xval.run ~circuit:"c17" ~vectors:500 () in
  let r' = Xval.run ~circuit:"c17" ~vectors:500 () in
  Alcotest.(check string) "xval JSON deterministic"
    (Json.to_string (Xval.to_json r))
    (Json.to_string (Xval.to_json r'))

(* ----------------------- tiered optimization ----------------------- *)

let tier_config =
  {
    Sertopt.Optimizer.default_config with
    Sertopt.Optimizer.aserta =
      { Aserta.Analysis.default_config with Aserta.Analysis.vectors = 400; seed = 5 };
    max_evals = 6;
    greedy_passes = 1;
    greedy_gates = 4;
    annealing_steps = 0;
    replay_guard = 0;
  }

let test_tiered_optimizer () =
  let l, baseline = sized_bench "c432" in
  let exact = Sertopt.Optimizer.optimize ~config:tier_config l baseline in
  let tiered =
    Sertopt.Optimizer.optimize
      ~config:
        { tier_config with Sertopt.Optimizer.tier = Sertopt.Optimizer.Serpp_prefilter 2 }
      l baseline
  in
  (* tiering spends strictly fewer exact evaluations... *)
  Alcotest.(check bool)
    (Printf.sprintf "tiered evals %d < exact evals %d"
       tiered.Sertopt.Optimizer.evals exact.Sertopt.Optimizer.evals)
    true (tiered.Sertopt.Optimizer.evals < exact.Sertopt.Optimizer.evals);
  (* ...while still only accepting exact-measured improvements *)
  let u_of (r : Sertopt.Optimizer.result) =
    r.Sertopt.Optimizer.optimized_metrics.Sertopt.Cost.unreliability
  in
  let u_base =
    tiered.Sertopt.Optimizer.baseline_metrics.Sertopt.Cost.unreliability
  in
  Alcotest.(check bool) "tiered result does not regress the baseline" true
    (u_of tiered <= u_base +. 1e-9);
  Alcotest.(check bool) "tiered result finite" true
    (Float.is_finite (u_of tiered))

(* ------------- incremental handle against the reference ------------- *)

module Incr_serpp = Ser_serpp.Incr_serpp
module Assignment = Ser_sta.Assignment
module Timing = Ser_sta.Timing

(* The reference: one candidate scored as the tiered ranking used to
   score every menu entry, with the estimation pass written out as it
   stood before it was split into a context and kernels (successors and
   sensitizations found per pass, one [Lut.interpolate_1d] per
   successor sample). Returns (profiles, estimates, metrics). *)
module Probs = Ser_logicsim.Probs
module Lut = Ser_table.Lut
module Glitch = Aserta.Glitch

let reference_pass (config : Serpp.config) lib asg =
  let c = Assignment.circuit asg in
  let n = Circuit.node_count c in
  let timing = Timing.analyze ~env:config.Serpp.env lib asg in
  let probs = Probs.signal_probabilities ?pi_probs:config.Serpp.pi_probs c in
  let ws = Serpp.sample_widths config in
  let n_samples = Array.length ws in
  let latch =
    match config.Serpp.latch_window with
    | None -> config.Serpp.max_sample_width
    | Some w -> Float.min w config.Serpp.max_sample_width
  in
  let cap = float_of_int (Array.length c.Circuit.outputs) *. latch in
  let successors id =
    List.sort_uniq
      (fun a b ->
        String.compare (Circuit.node c a).Circuit.name
          (Circuit.node c b).Circuit.name)
      (Array.to_list (Circuit.node c id).Circuit.fanout)
  in
  let profiles = Array.make n [||] in
  for id = n - 1 downto 0 do
    if not (Circuit.is_input c id) then
      if Circuit.is_output c id then
        profiles.(id) <- Array.map (fun w -> Float.min w latch) ws
      else begin
        let row = Array.make n_samples 0. in
        List.iter
          (fun s ->
            let sens =
              Probs.sensitization_to_driver c ~probs ~gate:s ~driver:id
            in
            if sens > 0. then
              for k = 0 to n_samples - 1 do
                let wo =
                  Glitch.propagate ~delay:timing.Timing.delays.(s)
                    ~width:ws.(k)
                in
                if wo > 0. then
                  row.(k) <-
                    row.(k)
                    +. (sens *. Lut.interpolate_1d ~xs:ws ~ys:profiles.(s) wo)
              done)
          (successors id);
        profiles.(id) <- Array.map (fun v -> if v > cap then cap else v) row
      end
  done;
  let estimate = Array.make n 0. in
  for id = 0 to n - 1 do
    if not (Circuit.is_input c id) then begin
      let cell = Assignment.get asg id in
      let node_cap = timing.Timing.loads.(id) +. L.output_cap lib cell in
      let glitch output_low =
        L.generated_glitch_width lib cell ~node_cap ~charge:config.Serpp.charge
          ~output_low
      in
      let p1 = probs.(id) in
      let wi = ((1. -. p1) *. glitch true) +. (p1 *. glitch false) in
      estimate.(id) <-
        L.area lib cell *. Lut.interpolate_1d ~xs:ws ~ys:profiles.(id) wi
    end
  done;
  let total = ref 0. in
  Array.iter (fun u -> total := !total +. u) estimate;
  let m =
    {
      Incr_serpp.unreliability = !total;
      delay = timing.Timing.critical_delay;
      energy = Timing.total_energy ~env:config.Serpp.env ~timing lib asg;
      area = Assignment.total_area lib asg;
    }
  in
  (profiles, estimate, m)

let reference config lib asg = reference_pass config lib (Assignment.copy asg)

let bits = Int64.bits_of_float
let same_float a b = Int64.equal (bits a) (bits b)

let same_row a b =
  Array.length a = Array.length b && Array.for_all2 same_float a b

(* [None] when the handle equals the reference of [asg], else what
   differs *)
let mismatch config lib asg h =
  let profiles, estimate, m = reference config lib asg in
  let hm = Incr_serpp.metrics h in
  let n = Array.length estimate in
  let first_bad f = List.find_opt f (List.init n Fun.id) in
  if not (same_float m.Incr_serpp.unreliability hm.Incr_serpp.unreliability)
  then Some "total"
  else if not (same_float m.Incr_serpp.delay hm.Incr_serpp.delay) then
    Some "delay"
  else if not (same_float m.Incr_serpp.energy hm.Incr_serpp.energy) then
    Some "energy"
  else if not (same_float m.Incr_serpp.area hm.Incr_serpp.area) then
    Some "area"
  else
    match
      first_bad (fun id ->
          not (same_row profiles.(id) (Incr_serpp.profile h id)))
    with
    | Some id -> Some (Printf.sprintf "profile of node %d" id)
    | None -> (
      match
        first_bad (fun id ->
            not (same_float estimate.(id) (Incr_serpp.estimate h id)))
      with
      | Some id -> Some (Printf.sprintf "estimate of node %d" id)
      | None -> None)

let gates_of c =
  Array.of_list
    (List.filter
       (fun id -> not (Circuit.is_input c id))
       (List.init (Circuit.node_count c) Fun.id))

let random_variant lib c rng g =
  let nd = Circuit.node c g in
  let vs =
    Array.of_list
      (L.variants lib nd.Circuit.kind (Array.length nd.Circuit.fanin))
  in
  vs.(Ser_rng.Rng.int rng (Array.length vs))

(* Random sequences of set_cell, fork and sync on random synthesized
   circuits, with and without a latching window and biased inputs:
   after every operation the handle, and at the end every handle
   forked away from, equals the reference of its own assignment. *)
let handle_matches_reference_prop =
  QCheck.Test.make ~count:25
    ~name:"handle = full pass, bit for bit"
    QCheck.(
      quad (int_bound 10_000) (int_range 10 60) (int_range 2 6)
        (pair bool bool))
    (fun (seed, n_gates, depth, (latch, biased)) ->
      let profile =
        {
          Ser_circuits.Iscas.pr_name = "rnd";
          pr_inputs = 4 + (seed mod 5);
          pr_outputs = 2 + (seed mod 3);
          pr_gates = n_gates;
          pr_depth = depth;
          pr_xor_heavy = seed mod 4 = 0;
        }
      in
      let c = Ser_circuits.Iscas.synthesize ~seed:(seed + 1) profile in
      let lib = Lazy.force lib in
      let rng = Ser_rng.Rng.create (seed + 31) in
      let config =
        {
          Serpp.default_config with
          Serpp.latch_window =
            (if latch then Some (10. +. float_of_int (seed mod 90)) else None);
          pi_probs =
            (if biased then
               Some
                 (Array.map
                    (fun _ -> Ser_rng.Rng.range rng 0.05 0.95)
                    c.Circuit.inputs)
             else None);
        }
      in
      let gates = gates_of c in
      let pick () = gates.(Ser_rng.Rng.int rng (Array.length gates)) in
      let asg = ref (Assignment.uniform lib c) in
      let h = ref (Incr_serpp.create ~config lib !asg) in
      let parents = ref [] in
      let check what (a, h) =
        match mismatch config lib a h with
        | None -> ()
        | Some d -> QCheck.Test.fail_reportf "after %s: %s differs" what d
      in
      check "create" (!asg, !h);
      for _ = 1 to 12 do
        match Ser_rng.Rng.int rng 4 with
        | 0 ->
          parents := (Assignment.copy !asg, !h) :: !parents;
          h := Incr_serpp.fork !h;
          check "fork" (!asg, !h)
        | 1 ->
          let a = Assignment.copy !asg in
          for _ = 1 to 1 + Ser_rng.Rng.int rng 5 do
            let g = pick () in
            Assignment.set a g (random_variant lib c rng g)
          done;
          asg := a;
          Incr_serpp.sync !h a;
          check "sync" (!asg, !h)
        | _ ->
          let g = pick () in
          let v = random_variant lib c rng g in
          Assignment.set !asg g v;
          Incr_serpp.set_cell !h g v;
          check "set_cell" (!asg, !h)
      done;
      List.iter (check "a fork's updates") !parents;
      true)

let test_fork_leaves_parent () =
  let l, asg = sized_bench "c432" in
  let h = Incr_serpp.create l asg in
  let c = Assignment.circuit asg in
  let n = Circuit.node_count c in
  let before = Incr_serpp.metrics h in
  let profiles = Array.init n (Incr_serpp.profile h) in
  let estimates = Array.init n (Incr_serpp.estimate h) in
  let rng = Ser_rng.Rng.create 3 in
  let gates = gates_of c in
  for _ = 1 to 40 do
    let probe = Incr_serpp.fork h in
    let g = gates.(Ser_rng.Rng.int rng (Array.length gates)) in
    Incr_serpp.set_cell probe g (random_variant l c rng g);
    ignore (Incr_serpp.metrics probe)
  done;
  let after = Incr_serpp.metrics h in
  Alcotest.(check bool) "parent metrics unchanged" true (before = after);
  for id = 0 to n - 1 do
    if not (same_row profiles.(id) (Incr_serpp.profile h id)
            && same_float estimates.(id) (Incr_serpp.estimate h id))
    then Alcotest.failf "node %d changed under a fork's update" id
  done;
  Alcotest.(check (option string)) "parent still equals its reference" None
    (mismatch Serpp.default_config l asg h)

(* --------------------- request-level contract ---------------------- *)

let test_request_backend_codec () =
  let req =
    Request.make ~backend:"serpp" Request.Analyze (Request.Spec "c17")
  in
  (match Request.of_json (Request.to_json req) with
  | Ok r -> Alcotest.(check string) "backend round-trips" "serpp" r.Request.backend
  | Error d -> Alcotest.failf "round-trip failed: %s" (Ser_util.Diag.to_string d));
  (* the backend is part of the analyze cache identity *)
  (match Json.member "backend" (Request.params_json req) with
  | Some (Json.Str "serpp") -> ()
  | _ -> Alcotest.fail "params_json must carry the backend");
  (* rate needs ASERTA's per-output tables *)
  let rate =
    Request.make ~backend:"serpp" Request.Rate (Request.Spec "c17")
  in
  (match Request.of_json (Request.to_json rate) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "rate with serpp backend accepted");
  (* unknown backends and tiers are typed errors, not silent defaults *)
  let patch name v =
    match Request.to_json req with
    | Json.Obj fields ->
      Json.Obj (List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) fields)
    | j -> j
  in
  match Request.of_json (patch "backend" (Json.Str "exotic")) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown backend accepted"

let test_request_tier_codec () =
  let req =
    Request.make ~eval_tier:"serpp" ~tier_k:3 Request.Optimize
      (Request.Spec "c17")
  in
  (match Request.of_json (Request.to_json req) with
  | Ok r ->
    Alcotest.(check string) "eval_tier round-trips" "serpp" r.Request.eval_tier;
    Alcotest.(check int) "tier_k round-trips" 3 r.Request.tier_k
  | Error d -> Alcotest.failf "round-trip failed: %s" (Ser_util.Diag.to_string d));
  let params = Request.params_json req in
  (match (Json.member "eval_tier" params, Json.member "tier_k" params) with
  | Some (Json.Str "serpp"), Some tk when Json.to_int_opt tk = Some 3 -> ()
  | _ -> Alcotest.fail "params_json must carry eval_tier and tier_k");
  match
    Request.of_json
      (Request.to_json { req with Request.tier_k = 0 })
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tier_k 0 accepted"

let () =
  Alcotest.run "serpp"
    [
      ( "estimator",
        [
          Alcotest.test_case "run basics" `Quick test_run_basic;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "checked config" `Quick
            test_checked_rejects_bad_config;
          Alcotest.test_case "latch window derates" `Quick
            test_latch_window_derates;
          QCheck_alcotest.to_alcotest bounded_prop;
          QCheck_alcotest.to_alcotest order_invariance_prop;
        ] );
      ( "xval",
        [
          Alcotest.test_case "c432 floors" `Quick test_xval_c432;
          Alcotest.test_case "c880 floors" `Slow test_xval_c880;
          Alcotest.test_case "json stable" `Quick test_xval_json_stable;
        ] );
      ( "tiered",
        [ Alcotest.test_case "prefilter saves exact evals" `Slow test_tiered_optimizer ] );
      ( "handle",
        [
          QCheck_alcotest.to_alcotest handle_matches_reference_prop;
          Alcotest.test_case "fork leaves parent" `Quick test_fork_leaves_parent;
        ] );
      ( "request",
        [
          Alcotest.test_case "backend codec" `Quick test_request_backend_codec;
          Alcotest.test_case "tier codec" `Quick test_request_tier_codec;
        ] );
    ]
