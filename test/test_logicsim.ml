module Bitsim = Ser_logicsim.Bitsim
module Probs = Ser_logicsim.Probs
module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate

let popcount_prop =
  QCheck.Test.make ~name:"popcount matches naive bit count" ~count:300
    QCheck.int (fun x ->
      let x = x land max_int in
      let naive = ref 0 in
      for b = 0 to Bitsim.bits_per_word - 1 do
        if (x lsr b) land 1 = 1 then incr naive
      done;
      Bitsim.popcount (x land Bitsim.mask_of Bitsim.bits_per_word) = !naive)

let test_mask_of () =
  Alcotest.(check int) "zero" 0 (Bitsim.mask_of 0);
  Alcotest.(check int) "three" 7 (Bitsim.mask_of 3);
  Alcotest.(check int) "count of full mask" Bitsim.bits_per_word
    (Bitsim.popcount (Bitsim.mask_of Bitsim.bits_per_word));
  try
    ignore (Bitsim.mask_of 99);
    Alcotest.fail "oversized mask accepted"
  with Invalid_argument _ -> ()

let eval_matches_bool_prop =
  QCheck.Test.make ~name:"bit-parallel eval = per-vector eval on c17" ~count:100
    QCheck.small_nat
    (fun seed ->
      let c = Ser_circuits.Iscas.c17 () in
      let rng = Ser_rng.Rng.create seed in
      let batch = Bitsim.random_batch rng c ~n_patterns:62 in
      (* check 8 random bit positions *)
      let ok = ref true in
      for _ = 1 to 8 do
        let bit = Ser_rng.Rng.int rng 62 in
        let vec =
          Array.map
            (fun id -> (batch.Bitsim.values.(id) lsr bit) land 1 = 1)
            c.Circuit.inputs
        in
        let values = Bitsim.eval_vector c vec in
        Array.iteri
          (fun id v ->
            let bitv = (batch.Bitsim.values.(id) lsr bit) land 1 = 1 in
            if v <> bitv then ok := false)
          values
      done;
      !ok)

let test_ones_count () =
  let c = Ser_circuits.Iscas.c17 () in
  (* constant-0 inputs: NAND outputs are all 1 *)
  let batch = Bitsim.eval c ~pi_words:(Array.make 5 0) ~n_patterns:10 in
  Alcotest.(check int) "input zeros" 0 (Bitsim.ones_count batch 0);
  Alcotest.(check int) "nand of zeros is one" 10 (Bitsim.ones_count batch 5)

(* ----------------- signal probabilities ----------------- *)

let test_signal_probs_tree () =
  (* a fanout-free tree: analytic probabilities are exact *)
  let b = Circuit.Builder.create () in
  let i1 = Circuit.Builder.add_input b "i1" in
  let i2 = Circuit.Builder.add_input b "i2" in
  let i3 = Circuit.Builder.add_input b "i3" in
  let a = Circuit.Builder.add_gate b Gate.And [ i1; i2 ] in
  let o = Circuit.Builder.add_gate b Gate.Or [ a; i3 ] in
  let n = Circuit.Builder.add_gate b Gate.Not [ o ] in
  Circuit.Builder.set_output b n;
  let c = Circuit.Builder.build_exn b in
  let p = Probs.signal_probabilities c in
  Alcotest.(check (float 1e-9)) "and" 0.25 p.(a);
  Alcotest.(check (float 1e-9)) "or" 0.625 p.(o);
  Alcotest.(check (float 1e-9)) "not" 0.375 p.(n)

let test_signal_probs_xor () =
  let b = Circuit.Builder.create () in
  let i1 = Circuit.Builder.add_input b "i1" in
  let i2 = Circuit.Builder.add_input b "i2" in
  let x = Circuit.Builder.add_gate b Gate.Xor [ i1; i2 ] in
  let xn = Circuit.Builder.add_gate b Gate.Xnor [ i1; i2 ] in
  Circuit.Builder.set_output b x;
  Circuit.Builder.set_output b xn;
  let c = Circuit.Builder.build_exn b in
  let p = Probs.signal_probabilities c in
  Alcotest.(check (float 1e-9)) "xor" 0.5 p.(x);
  Alcotest.(check (float 1e-9)) "xnor" 0.5 p.(xn)

let test_signal_probs_pi_prob () =
  let b = Circuit.Builder.create () in
  let i1 = Circuit.Builder.add_input b "i1" in
  let i2 = Circuit.Builder.add_input b "i2" in
  let a = Circuit.Builder.add_gate b Gate.And [ i1; i2 ] in
  Circuit.Builder.set_output b a;
  let c = Circuit.Builder.build_exn b in
  let p = Probs.signal_probabilities ~pi_prob:0.9 c in
  Alcotest.(check (float 1e-9)) "and of 0.9" 0.81 p.(a)

let test_mc_close_to_analytic () =
  let c = Ser_circuits.Iscas.c17 () in
  let analytic = Probs.signal_probabilities c in
  let mc =
    Probs.signal_probabilities_mc ~rng:(Ser_rng.Rng.create 5) ~vectors:20_000 c
  in
  (* c17 has reconvergent fan-out, so the independence-assumption
     analytic values carry a small bias against the exact MC values *)
  Array.iteri
    (fun id pa ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d: %.3f vs %.3f" id pa mc.(id))
        true
        (Float.abs (pa -. mc.(id)) < 0.06))
    analytic

(* ----------------- sensitization ----------------- *)

let test_side_sensitization () =
  let b = Circuit.Builder.create () in
  let i1 = Circuit.Builder.add_input b "i1" in
  let i2 = Circuit.Builder.add_input b "i2" in
  let i3 = Circuit.Builder.add_input b "i3" in
  let a = Circuit.Builder.add_gate b Gate.And [ i1; i2; i3 ] in
  let o = Circuit.Builder.add_gate b Gate.Nor [ a; i3 ] in
  let x = Circuit.Builder.add_gate b Gate.Xor [ a; o ] in
  Circuit.Builder.set_output b x;
  let c = Circuit.Builder.build_exn b in
  let probs = Probs.signal_probabilities c in
  (* AND3: sides must be 1: 0.5 * 0.5 *)
  Alcotest.(check (float 1e-9)) "and sides" 0.25
    (Probs.side_sensitization c ~probs ~gate:a ~pin:0);
  (* NOR: side must be 0 *)
  Alcotest.(check (float 1e-9)) "nor side" (1. -. probs.(i3))
    (Probs.side_sensitization c ~probs ~gate:o ~pin:0);
  (* XOR: always sensitized *)
  Alcotest.(check (float 1e-9)) "xor" 1.
    (Probs.side_sensitization c ~probs ~gate:x ~pin:1);
  (* by driver id *)
  Alcotest.(check (float 1e-9)) "driver form" 0.25
    (Probs.sensitization_to_driver c ~probs ~gate:a ~driver:i1);
  Alcotest.(check bool) "unknown driver raises" true
    (try ignore (Probs.sensitization_to_driver c ~probs ~gate:a ~driver:x); false
     with Not_found -> true)

(* ----------------- path probabilities ----------------- *)

let exact_pij c =
  (* exhaustive over all input vectors (few inputs only) *)
  let n_in = Array.length c.Circuit.inputs in
  let n = Circuit.node_count c in
  let n_pos = Array.length c.Circuit.outputs in
  let counts = Array.make_matrix n n_pos 0 in
  let total = 1 lsl n_in in
  for code = 0 to total - 1 do
    let vec = Array.init n_in (fun i -> (code lsr i) land 1 = 1) in
    for g = 0 to n - 1 do
      if not (Circuit.is_input c g) then begin
        let det = Probs.detection_counts_for_vector c vec ~strike:g in
        Array.iteri (fun pos hit -> if hit then counts.(g).(pos) <- counts.(g).(pos) + 1) det
      end
    done
  done;
  Array.map (Array.map (fun k -> float_of_int k /. float_of_int total)) counts

let test_pij_c17_exact () =
  let c = Ser_circuits.Iscas.c17 () in
  let exact = exact_pij c in
  let mc =
    Probs.path_probabilities ~rng:(Ser_rng.Rng.create 9) ~vectors:20_000 c
  in
  for g = 0 to Circuit.node_count c - 1 do
    if not (Circuit.is_input c g) then
      Array.iteri
        (fun pos pe ->
          Alcotest.(check bool)
            (Printf.sprintf "gate %d PO %d: %.3f vs %.3f" g pos pe
               mc.Probs.p.(g).(pos))
            true
            (Float.abs (pe -. mc.Probs.p.(g).(pos)) < 0.02))
        exact.(g)
  done

let test_pjj_is_one () =
  let c = Ser_circuits.Iscas.c17 () in
  let pp = Probs.path_probabilities ~rng:(Ser_rng.Rng.create 1) ~vectors:620 c in
  Array.iteri
    (fun pos id ->
      Alcotest.(check (float 1e-9)) "P_jj = 1" 1. pp.Probs.p.(id).(pos))
    c.Circuit.outputs

let test_pij_input_rows_zero () =
  let c = Ser_circuits.Iscas.c17 () in
  let pp = Probs.path_probabilities ~rng:(Ser_rng.Rng.create 1) ~vectors:62 c in
  Array.iter
    (fun id ->
      Array.iter
        (fun v -> Alcotest.(check (float 0.)) "PI row zero" 0. v)
        pp.Probs.p.(id))
    c.Circuit.inputs

let pij_brute_force_prop =
  QCheck.Test.make ~name:"fault sim matches per-vector flip on random circuits"
    ~count:20 QCheck.small_nat
    (fun seed ->
      (* build a small random circuit *)
      let rng = Ser_rng.Rng.create (seed + 1000) in
      let b = Circuit.Builder.create () in
      let inputs = List.init 4 (fun i -> Circuit.Builder.add_input b (Printf.sprintf "i%d" i)) in
      let nodes = ref (Array.of_list inputs) in
      for _ = 1 to 8 do
        let pick () = !nodes.(Ser_rng.Rng.int rng (Array.length !nodes)) in
        let a = pick () in
        let c0 = pick () in
        let kind = Ser_rng.Rng.choose rng [| Gate.Nand; Gate.Nor; Gate.And; Gate.Or |] in
        let g = Circuit.Builder.add_gate b kind [ a; c0 ] in
        nodes := Array.append !nodes [| g |]
      done;
      (* outputs: last two created nodes, plus mark all dangling as outputs *)
      let c =
        Array.iter
          (fun id -> Circuit.Builder.set_output b id)
          (Array.sub !nodes (Array.length !nodes - 2) 2);
        match Circuit.Builder.build_trimmed b with
        | Ok c -> c
        | Error _ -> Ser_circuits.Iscas.c17 ()
      in
      let exact = exact_pij c in
      let mc = Probs.path_probabilities ~rng:(Ser_rng.Rng.create seed) ~vectors:20_000 c in
      let ok = ref true in
      for g = 0 to Circuit.node_count c - 1 do
        if not (Circuit.is_input c g) then
          Array.iteri
            (fun pos pe ->
              if Float.abs (pe -. mc.Probs.p.(g).(pos)) > 0.03 then ok := false)
            exact.(g)
      done;
      !ok)

(* a random fan-out-free circuit: every signal is consumed exactly once *)
let random_tree seed =
  let rng = Ser_rng.Rng.create seed in
  let b = Circuit.Builder.create () in
  let available = ref [] in
  for i = 0 to 5 do
    available := Circuit.Builder.add_input b (Printf.sprintf "i%d" i) :: !available
  done;
  while List.length !available > 1 do
    match !available with
    | a :: c0 :: rest ->
      let kind =
        Ser_rng.Rng.choose rng
          [| Gate.And; Gate.Or; Gate.Nand; Gate.Nor; Gate.Xor |]
      in
      let g = Circuit.Builder.add_gate b kind [ a; c0 ] in
      available := rest @ [ g ]
    | _ -> assert false
  done;
  Circuit.Builder.set_output b (List.hd !available);
  Circuit.Builder.build_exn b

let analytic_exact_on_trees_prop =
  QCheck.Test.make ~name:"analytic P_ij matches exhaustive on trees" ~count:25
    QCheck.small_nat
    (fun seed ->
      let c = random_tree seed in
      let analytic = Probs.path_probabilities_analytic c in
      let exact = exact_pij c in
      let ok = ref true in
      for g = 0 to Circuit.node_count c - 1 do
        if not (Circuit.is_input c g) then
          Array.iteri
            (fun pos pe ->
              if Float.abs (pe -. analytic.Probs.p.(g).(pos)) > 1e-9 then
                ok := false)
            exact.(g)
      done;
      !ok)

let test_analytic_close_on_c17 () =
  let c = Ser_circuits.Iscas.c17 () in
  let analytic = Probs.path_probabilities_analytic c in
  let exact = exact_pij c in
  (* reconvergence makes it approximate; it must stay correlated *)
  let fa = Array.concat (Array.to_list analytic.Probs.p) in
  let fe = Array.concat (Array.to_list exact) in
  Alcotest.(check bool) "correlated" true (Ser_linalg.Stats.pearson fa fe > 0.85);
  (* PO gates keep P_jj = 1 *)
  Array.iteri
    (fun pos id ->
      Alcotest.(check (float 1e-9)) "P_jj" 1. analytic.Probs.p.(id).(pos))
    c.Circuit.outputs

let test_biased_inputs () =
  let c = Ser_circuits.Iscas.c17 () in
  let pi_probs = [| 0.9; 0.9; 0.9; 0.9; 0.9 |] in
  let rng = Ser_rng.Rng.create 8 in
  let batch = Bitsim.random_batch ~pi_probs rng c ~n_patterns:62 in
  (* first input should be mostly ones over many draws *)
  let ones = ref 0 and total = ref 0 in
  for _ = 1 to 50 do
    let b = Bitsim.random_batch ~pi_probs rng c ~n_patterns:62 in
    ones := !ones + Bitsim.ones_count b c.Circuit.inputs.(0);
    total := !total + 62
  done;
  ignore batch;
  let f = float_of_int !ones /. float_of_int !total in
  Alcotest.(check bool) (Printf.sprintf "bias %.2f" f) true
    (f > 0.85 && f < 0.95);
  (* analytic signal probabilities take the same bias *)
  let p = Probs.signal_probabilities ~pi_probs c in
  Alcotest.(check (float 1e-9)) "input prob" 0.9 p.(c.Circuit.inputs.(0));
  (* NAND(0.9, 0.9) = 1 - 0.81 *)
  Alcotest.(check (float 1e-9)) "nand prob" 0.19 p.(5);
  (* length validation *)
  try
    ignore (Bitsim.random_batch ~pi_probs:[| 0.5 |] rng c ~n_patterns:62);
    Alcotest.fail "length mismatch accepted"
  with Invalid_argument _ -> ()

let test_parallel_identical () =
  let c = Ser_circuits.Iscas.load "c432" in
  let run jobs =
    Ser_par.Par.set_jobs jobs;
    Probs.path_probabilities ~rng:(Ser_rng.Rng.create 4) ~vectors:500 c
  in
  let width = Ser_par.Par.jobs () in
  let seq, par =
    Fun.protect
      ~finally:(fun () -> Ser_par.Par.set_jobs width)
      (fun () ->
        let seq = run 1 in
        (seq, run 2))
  in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          if v <> par.Probs.p.(i).(j) then
            Alcotest.failf "mismatch at gate %d PO %d" i j)
        row)
    seq.Probs.p

let test_detection_counts_requires_gate () =
  let c = Ser_circuits.Iscas.c17 () in
  try
    ignore (Probs.detection_counts_for_vector c (Array.make 5 false) ~strike:0);
    Alcotest.fail "PI strike accepted"
  with Invalid_argument _ -> ()

let () =
  Alcotest.run "ser_logicsim"
    [
      ( "bitsim",
        [
          QCheck_alcotest.to_alcotest popcount_prop;
          Alcotest.test_case "mask_of" `Quick test_mask_of;
          QCheck_alcotest.to_alcotest eval_matches_bool_prop;
          Alcotest.test_case "ones_count" `Quick test_ones_count;
        ] );
      ( "signal probabilities",
        [
          Alcotest.test_case "tree exact" `Quick test_signal_probs_tree;
          Alcotest.test_case "xor family" `Quick test_signal_probs_xor;
          Alcotest.test_case "pi_prob" `Quick test_signal_probs_pi_prob;
          Alcotest.test_case "MC agrees" `Quick test_mc_close_to_analytic;
        ] );
      ( "sensitization",
        [ Alcotest.test_case "side values" `Quick test_side_sensitization ] );
      ( "path probabilities",
        [
          Alcotest.test_case "c17 vs exhaustive" `Slow test_pij_c17_exact;
          Alcotest.test_case "P_jj = 1" `Quick test_pjj_is_one;
          Alcotest.test_case "PI rows zero" `Quick test_pij_input_rows_zero;
          QCheck_alcotest.to_alcotest pij_brute_force_prop;
          QCheck_alcotest.to_alcotest analytic_exact_on_trees_prop;
          Alcotest.test_case "analytic close on c17" `Quick test_analytic_close_on_c17;
          Alcotest.test_case "biased inputs" `Quick test_biased_inputs;
          Alcotest.test_case "parallel = sequential" `Quick test_parallel_identical;
          Alcotest.test_case "PI strike rejected" `Quick test_detection_counts_requires_gate;
        ] );
    ]
