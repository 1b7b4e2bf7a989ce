module Glitch = Aserta.Glitch
module Analysis = Aserta.Analysis
module Measured = Aserta.Measured
module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate
module L = Ser_cell.Library
module A = Ser_sta.Assignment

(* ---------------- Eq. 1 ---------------- *)

let test_eq1_regimes () =
  Alcotest.(check (float 0.)) "killed" 0. (Glitch.propagate ~delay:10. ~width:5.);
  Alcotest.(check (float 0.)) "boundary w=d" 0. (Glitch.propagate ~delay:10. ~width:9.999);
  Alcotest.(check (float 1e-9)) "attenuating" 10. (Glitch.propagate ~delay:10. ~width:15.);
  Alcotest.(check (float 1e-9)) "boundary w=2d" 20. (Glitch.propagate ~delay:10. ~width:20.);
  Alcotest.(check (float 1e-9)) "pass-through" 50. (Glitch.propagate ~delay:10. ~width:50.);
  Alcotest.(check (float 0.)) "negative clamps" 0. (Glitch.propagate ~delay:10. ~width:(-3.))

let eq1_monotone_prop =
  QCheck.Test.make ~name:"Eq-1 monotone in width, antitone in delay" ~count:300
    QCheck.(triple (float_range 0.1 100.) (float_range 0. 200.) (float_range 0. 50.))
    (fun (d, w, dw) ->
      Glitch.propagate ~delay:d ~width:(w +. dw) >= Glitch.propagate ~delay:d ~width:w
      && Glitch.propagate ~delay:(d +. 1.) ~width:w <= Glitch.propagate ~delay:d ~width:w)

let eq1_contraction_prop =
  QCheck.Test.make ~name:"Eq-1 never amplifies" ~count:300
    QCheck.(pair (float_range 0.1 100.) (float_range 0. 300.))
    (fun (d, w) -> Glitch.propagate ~delay:d ~width:w <= w +. 1e-9)

let test_amplitude_model () =
  let module Amp = Glitch.Amplitude in
  (* full-swing wide glitches reduce to Eq. 1 *)
  let g = Amp.full_swing ~vdd:1. 60. in
  let out = Amp.propagate ~delay:10. ~vdd:1. g in
  Alcotest.(check (float 1e-9)) "wide width = Eq1" (Glitch.propagate ~delay:10. ~width:60.)
    out.Amp.width;
  Alcotest.(check (float 1e-9)) "wide keeps full swing" 1. out.Amp.amplitude;
  (* marginal glitches lose amplitude *)
  let m = Amp.propagate ~delay:10. ~vdd:1. (Amp.full_swing ~vdd:1. 15.) in
  Alcotest.(check bool) "marginal loses amplitude" true (m.Amp.amplitude < 1.);
  (* sub-threshold amplitude means zero effective width *)
  let dead = { Amp.amplitude = 0.4; width = 50. } in
  Alcotest.(check (float 0.)) "dead glitch" 0. (Amp.effective_width ~vdd:1. dead);
  (* a degraded glitch dies faster in a chain than Eq. 1 predicts *)
  let delays = Array.make 6 10. in
  let eq1 = Glitch.chain ~delays ~width:19. in
  let amp =
    Amp.effective_width ~vdd:1.
      (Amp.chain ~delays ~vdd:1. (Amp.full_swing ~vdd:1. 19.))
  in
  Alcotest.(check bool) "amplitude model at most Eq1" true (amp <= eq1 +. 1e-9);
  (* killed glitches stay killed *)
  let z = Amp.propagate ~delay:10. ~vdd:1. { Amp.amplitude = 0.3; width = 30. } in
  Alcotest.(check (float 0.)) "no resurrection" 0. z.Amp.width

let amplitude_never_amplifies_prop =
  QCheck.Test.make ~name:"amplitude model never exceeds Eq-1 width" ~count:300
    QCheck.(pair (float_range 1. 50.) (float_range 0. 150.))
    (fun (d, w) ->
      let module Amp = Glitch.Amplitude in
      let out = Amp.propagate ~delay:d ~vdd:1. (Amp.full_swing ~vdd:1. w) in
      Amp.effective_width ~vdd:1. out
      <= Glitch.propagate ~delay:d ~width:w +. 1e-9
      && out.Amp.amplitude >= 0.
      && out.Amp.amplitude <= 1. +. 1e-9)

let test_chain () =
  Alcotest.(check (float 1e-9)) "chain"
    (Glitch.propagate ~delay:20. ~width:(Glitch.propagate ~delay:10. ~width:30.))
    (Glitch.chain ~delays:[| 10.; 20. |] ~width:30.);
  Alcotest.(check bool) "survives" true (Glitch.survives ~delay:10. ~width:10.);
  Alcotest.(check bool) "dies" false (Glitch.survives ~delay:10. ~width:9.)

(* ---------------- analysis ---------------- *)

let quick_config =
  { Analysis.default_config with Analysis.vectors = 2000; seed = 4 }

let c17_setup () =
  let c = Ser_circuits.Iscas.c17 () in
  let lib = L.create () in
  let asg = A.uniform lib c in
  (c, lib, asg)

let test_sample_widths () =
  let ws = Analysis.sample_widths quick_config in
  Alcotest.(check int) "ten samples" 10 (Array.length ws);
  Alcotest.(check (float 1e-9)) "top is max_sample_width"
    quick_config.Analysis.max_sample_width
    ws.(9);
  for i = 0 to 8 do
    Alcotest.(check bool) "ascending" true (ws.(i) < ws.(i + 1))
  done

let test_run_basic () =
  let c, lib, asg = c17_setup () in
  let r = Analysis.run ~config:quick_config lib asg in
  Alcotest.(check bool) "positive total" true (r.Analysis.total > 0.);
  (* inputs contribute nothing *)
  Array.iter
    (fun id ->
      Alcotest.(check (float 0.)) "PI zero" 0. r.Analysis.unreliability.(id))
    c.Circuit.inputs;
  (* total is the sum of per-gate terms *)
  let s = Array.fold_left ( +. ) 0. r.Analysis.unreliability in
  Alcotest.(check bool) "sum consistency" true
    (Float.abs (s -. r.Analysis.total) /. r.Analysis.total < 1e-9)

let test_po_gate_width_identity () =
  (* W_jj = w_j for a primary-output gate (step ii + iv of the paper) *)
  let c, lib, asg = c17_setup () in
  let r = Analysis.run ~config:quick_config lib asg in
  Array.iteri
    (fun pos id ->
      Alcotest.(check (float 1e-9)) "W_jj = w_j" r.Analysis.gen_width.(id)
        r.Analysis.expected_width.(id).(pos))
    c.Circuit.outputs

let test_expected_width_bounded () =
  let _, lib, asg = c17_setup () in
  let r = Analysis.run ~config:quick_config lib asg in
  Array.iter
    (fun row ->
      Array.iter
        (fun w ->
          Alcotest.(check bool) "non-negative" true (w >= 0.);
          Alcotest.(check bool) "bounded by top sample" true
            (w <= quick_config.Analysis.max_sample_width +. 1e-6))
        row)
    r.Analysis.expected_width

let test_pi_weight_normalisation () =
  (* sum_s pi_isj * P_sj = P_ij -- the property Eq. 2 is built to satisfy *)
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let r = Analysis.run ~config:quick_config lib asg in
  let p = r.Analysis.masking.Analysis.path_probs.Ser_logicsim.Probs.p in
  let checked = ref 0 in
  Array.iter
    (fun (nd : Circuit.node) ->
      if
        nd.Circuit.kind <> Gate.Input
        && (not (Circuit.is_output c nd.Circuit.id))
        && !checked < 40
      then begin
        let succs =
          Array.to_list nd.Circuit.fanout |> List.sort_uniq compare
        in
        Array.iteri
          (fun j pij ->
            if pij > 0.01 then begin
              let lhs =
                List.fold_left
                  (fun acc s ->
                    acc
                    +. Analysis.successor_weight r ~gate:nd.Circuit.id ~succ:s ~po:j
                       *. p.(s).(j))
                  0. succs
              in
              incr checked;
              Alcotest.(check (float 1e-9))
                (Printf.sprintf "gate %d po %d" nd.Circuit.id j)
                pij lhs
            end)
          p.(nd.Circuit.id)
      end)
    c.Circuit.nodes;
  Alcotest.(check bool) "checked some" true (!checked > 10)

let test_lemma1_wide_glitch () =
  (* Lemma 1: a very wide generated glitch reaches output j with
     expected width ww * P_ij. Force wide glitches with a huge charge
     and a modest top sample. *)
  let c, lib, asg = c17_setup () in
  let config =
    { quick_config with Analysis.charge = 5_000.; max_sample_width = 120. }
  in
  let r = Analysis.run ~config lib asg in
  let p = r.Analysis.masking.Analysis.path_probs.Ser_logicsim.Probs.p in
  let ws = Analysis.sample_widths config in
  let ww = ws.(Array.length ws - 1) in
  Array.iteri
    (fun id row ->
      if not (Circuit.is_input c id) then begin
        Alcotest.(check bool)
          (Printf.sprintf "gate %d glitch is wide (%.0f >= %.0f)" id
             r.Analysis.gen_width.(id) ww)
          true
          (r.Analysis.gen_width.(id) >= ww);
        Array.iteri
          (fun j wij ->
            let expect =
              if Circuit.output_index c id = Some j then
                r.Analysis.gen_width.(id)
              else ww *. p.(id).(j)
            in
            if expect > 1. then
              Alcotest.(check bool)
                (Printf.sprintf "gate %d po %d: %.1f vs %.1f" id j wij expect)
                true
                (Float.abs (wij -. expect) /. expect < 0.15))
          row
      end)
    r.Analysis.expected_width

let test_masking_reuse () =
  (* run_electrical with precomputed masking = run from scratch *)
  let _, lib, asg = c17_setup () in
  let c = A.circuit asg in
  let masking = Analysis.compute_masking quick_config c in
  let a = Analysis.run_electrical quick_config lib asg masking in
  let b = Analysis.run ~config:quick_config lib asg in
  Alcotest.(check (float 1e-9)) "same total" a.Analysis.total b.Analysis.total

let test_charge_monotone () =
  let _, lib, asg = c17_setup () in
  let c = A.circuit asg in
  let masking = Analysis.compute_masking quick_config c in
  let u q =
    (Analysis.run_electrical { quick_config with Analysis.charge = q } lib asg
       masking).Analysis.total
  in
  Alcotest.(check bool) "more charge more unreliability" true
    (u 4. < u 16. && u 16. < u 64.)

let test_naive_split_differs () =
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let masking = Analysis.compute_masking quick_config c in
  let exact = Analysis.run_electrical quick_config lib asg masking in
  let naive =
    Analysis.run_electrical { quick_config with Analysis.split = Analysis.Naive }
      lib asg masking
  in
  Alcotest.(check bool) "splits differ" true
    (Float.abs (exact.Analysis.total -. naive.Analysis.total)
     /. exact.Analysis.total
    > 1e-3)

(* ---------------- measured mode ---------------- *)

let test_measured_po_strike () =
  (* striking a PO gate yields exactly its generated width at that PO *)
  let c, lib, asg = c17_setup () in
  let timing = Ser_sta.Timing.analyze lib asg in
  let po = c.Circuit.outputs.(0) in
  let vec = [| true; true; true; true; true |] in
  let r = Measured.strike_widths lib asg ~timing ~input_values:vec ~charge:16. ~gate:po in
  let w_at_po = List.assoc 0 r.Measured.po_widths in
  Alcotest.(check bool) "positive width at own latch" true (w_at_po > 0.)

let test_measured_logical_masking () =
  (* gate 6 ("11" = NAND(3,6)) is masked under 1,0,1,1,0 (checked by
     the transient simulator too, in test_spice) *)
  let c, lib, asg = c17_setup () in
  let timing = Ser_sta.Timing.analyze lib asg in
  let vec = [| true; false; true; true; false |] in
  let r = Measured.strike_widths lib asg ~timing ~input_values:vec ~charge:16. ~gate:6 in
  List.iter
    (fun (_, w) -> Alcotest.(check (float 0.)) "masked" 0. w)
    r.Measured.po_widths;
  ignore c

let test_measured_unreliability_tracks_analysis () =
  let c = Ser_circuits.Iscas.load "c432" in
  let lib = L.create () in
  let asg = A.uniform lib c in
  let analysis = Analysis.run ~config:quick_config lib asg in
  let measured = Measured.unreliability ~vectors:60 lib asg in
  let ratio = measured /. analysis.Analysis.total in
  Alcotest.(check bool)
    (Printf.sprintf "same scale (ratio %.2f)" ratio)
    true
    (ratio > 0.5 && ratio < 2.0)

let test_measured_per_gate_sums () =
  let _, lib, asg = c17_setup () in
  let per = Measured.per_gate_unreliability ~vectors:10 lib asg in
  let total = Measured.unreliability ~vectors:10 lib asg in
  Alcotest.(check (float 1e-6)) "sum = total" total (Array.fold_left ( +. ) 0. per)

let test_analytic_masking_backend () =
  let _, lib, asg = c17_setup () in
  let cfg = { quick_config with Analysis.masking_backend = Analysis.Analytic_masking } in
  let a = Analysis.run ~config:cfg lib asg in
  let b = Analysis.run ~config:quick_config lib asg in
  Alcotest.(check bool) "positive" true (a.Analysis.total > 0.);
  let ratio = a.Analysis.total /. b.Analysis.total in
  Alcotest.(check bool)
    (Printf.sprintf "same scale as MC (ratio %.2f)" ratio)
    true
    (ratio > 0.7 && ratio < 1.4)

let test_biased_pi_config () =
  (* biasing inputs toward the NAND controlling value (0) raises the
     sensitization of the c17 internals and changes U *)
  let _, lib, asg = c17_setup () in
  let cfg_biased =
    { quick_config with Analysis.pi_probs = Some (Array.make 5 0.9) }
  in
  let a = Analysis.run ~config:cfg_biased lib asg in
  let b = Analysis.run ~config:quick_config lib asg in
  Alcotest.(check bool) "bias changes the answer" true
    (Float.abs (a.Analysis.total -. b.Analysis.total) /. b.Analysis.total > 0.02);
  (* static probabilities reflect the bias *)
  Alcotest.(check (float 1e-9)) "p at input" 0.9
    a.Analysis.masking.Analysis.probs.(0)

(* ---------------- ser rate ---------------- *)

let test_latch_probability () =
  Alcotest.(check (float 1e-9)) "proportional" 0.25
    (Aserta.Ser_rate.latch_probability ~clock_period:200. 50.);
  Alcotest.(check (float 1e-9)) "saturates" 1.
    (Aserta.Ser_rate.latch_probability ~clock_period:100. 250.);
  Alcotest.(check (float 1e-9)) "negative clamps" 0.
    (Aserta.Ser_rate.latch_probability ~clock_period:100. (-5.));
  try
    ignore (Aserta.Ser_rate.latch_probability ~clock_period:0. 5.);
    Alcotest.fail "bad clock accepted"
  with Invalid_argument _ -> ()

let test_ser_rate_basic () =
  let _, lib, asg = c17_setup () in
  let analysis = Analysis.run ~config:quick_config lib asg in
  let rate = Aserta.Ser_rate.run lib asg analysis in
  Alcotest.(check bool) "positive total" true (rate.Aserta.Ser_rate.total > 0.);
  Alcotest.(check (float 1e-9)) "per-gate sums"
    rate.Aserta.Ser_rate.total
    (Ser_util.Floatx.sum rate.Aserta.Ser_rate.per_gate);
  (* inputs contribute nothing *)
  Alcotest.(check (float 0.)) "PI zero" 0. rate.Aserta.Ser_rate.per_gate.(0)

let test_ser_rate_monotone_in_slope () =
  (* a harsher spectrum (bigger Qs = more high-charge strikes) raises the rate *)
  let _, lib, asg = c17_setup () in
  let analysis = Analysis.run ~config:quick_config lib asg in
  let rate qs =
    (Aserta.Ser_rate.run
       ~spectrum:{ Aserta.Ser_rate.default_spectrum with Aserta.Ser_rate.q_slope = qs }
       lib asg analysis)
      .Aserta.Ser_rate.total
  in
  Alcotest.(check bool) "monotone in q_slope" true (rate 3. < rate 6. && rate 6. < rate 12.)

let test_ser_rate_monotone_in_clock () =
  (* a slower clock means a wider latching window fraction... actually a
     LONGER period lowers the capture probability of a fixed width *)
  let _, lib, asg = c17_setup () in
  let analysis = Analysis.run ~config:quick_config lib asg in
  let rate t =
    (Aserta.Ser_rate.run ~clock_period:t lib asg analysis).Aserta.Ser_rate.total
  in
  Alcotest.(check bool) "faster clock more captures" true (rate 200. > rate 800.)

let test_ser_rate_validation () =
  let _, lib, asg = c17_setup () in
  let analysis = Analysis.run ~config:quick_config lib asg in
  let bad spectrum =
    try
      ignore (Aserta.Ser_rate.run ~spectrum lib asg analysis);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad range" true
    (bad { Aserta.Ser_rate.default_spectrum with Aserta.Ser_rate.q_min = 10.; q_max = 5. });
  Alcotest.(check bool) "bad points" true
    (bad { Aserta.Ser_rate.default_spectrum with Aserta.Ser_rate.n_points = 1 })

let test_expected_width_at () =
  let c, lib, asg = c17_setup () in
  let r = Analysis.run ~config:quick_config lib asg in
  (* identity at a PO gate's own position *)
  let po = c.Circuit.outputs.(0) in
  Alcotest.(check (float 1e-9)) "PO identity" 123.
    (Analysis.expected_width_at r ~gate:po ~po:0 ~width:123.);
  (* consistency with the stored W_ij at the analysed generated width *)
  Array.iteri
    (fun id row ->
      if not (Circuit.is_input c id) then
        Array.iteri
          (fun j wij ->
            Alcotest.(check (float 1e-6))
              (Printf.sprintf "gate %d po %d" id j)
              wij
              (Analysis.expected_width_at r ~gate:id ~po:j
                 ~width:r.Analysis.gen_width.(id)))
          row)
    r.Analysis.expected_width;
  (* inputs give zero *)
  Alcotest.(check (float 0.)) "PI zero" 0.
    (Analysis.expected_width_at r ~gate:0 ~po:0 ~width:50.)

let test_measured_rejects_pi () =
  let _, lib, asg = c17_setup () in
  let timing = Ser_sta.Timing.analyze lib asg in
  try
    ignore
      (Measured.strike_widths lib asg ~timing
         ~input_values:(Array.make 5 false) ~charge:16. ~gate:0);
    Alcotest.fail "PI strike accepted"
  with Invalid_argument _ -> ()

(* ------------- reference electrical pass (the oracle) ------------- *)

(* The electrical pass written out plainly, one gate at a time: the
   standalone WS-table loop and the per-output [Lut.interpolate_1d]
   unreliability. [Analysis.run_electrical] hoists and parallelises
   this computation; the property below holds it to these bits. *)
module Probs = Ser_logicsim.Probs
module Lut = Ser_table.Lut
module Floatx = Ser_util.Floatx

let unique_successors (c : Circuit.t) id =
  let seen = Hashtbl.create 4 in
  Array.to_list (Circuit.node c id).Circuit.fanout
  |> List.filter (fun s ->
         if Hashtbl.mem seen s then false
         else begin
           Hashtbl.replace seen s ();
           true
         end)

let reference_ws_table (config : Analysis.config) (masking : Analysis.masking)
    ~samples:ws ~po_pos ~delays ~tables (c : Circuit.t) id =
  let n_pos = Array.length c.Circuit.outputs in
  let n_samples = Array.length ws in
  let p = masking.Analysis.path_probs.Probs.p in
  let t = Array.make_matrix n_pos n_samples 0. in
  if po_pos.(id) >= 0 then Array.blit ws 0 t.(po_pos.(id)) 0 n_samples
  else begin
    let succs = Array.of_list (unique_successors c id) in
    let n_succ = Array.length succs in
    let sens =
      Array.map
        (fun s ->
          Probs.sensitization_to_driver c ~probs:masking.Analysis.probs
            ~gate:s ~driver:id)
        succs
    in
    let lo = Array.make_matrix n_succ n_samples (-1) in
    let fr = Array.make_matrix n_succ n_samples 0. in
    for si = 0 to n_succ - 1 do
      for k = 0 to n_samples - 1 do
        let wo = Glitch.propagate ~delay:delays.(succs.(si)) ~width:ws.(k) in
        if wo > 0. then begin
          let b = Floatx.binary_search_bracket ws wo in
          let woc = Floatx.clamp ~lo:ws.(0) ~hi:ws.(n_samples - 1) wo in
          lo.(si).(k) <- b;
          fr.(si).(k) <- Floatx.inv_lerp ws.(b) ws.(b + 1) woc
        end
      done
    done;
    for j = 0 to n_pos - 1 do
      let pij = p.(id).(j) in
      if pij > 0. then begin
        let denom =
          match config.Analysis.split with
          | Analysis.Naive -> 1.
          | Analysis.Normalized ->
            let acc = ref 0. in
            for si = 0 to n_succ - 1 do
              acc := !acc +. (sens.(si) *. p.(succs.(si)).(j))
            done;
            !acc
        in
        if denom > 0. then
          for si = 0 to n_succ - 1 do
            let psj = p.(succs.(si)).(j) in
            let weight =
              match config.Analysis.split with
              | Analysis.Normalized -> sens.(si) *. pij /. denom
              | Analysis.Naive -> sens.(si) *. psj
            in
            if weight > 0. && psj > 0. then
              for k = 0 to n_samples - 1 do
                let b = lo.(si).(k) in
                if b >= 0 then begin
                  let s_row = tables.(succs.(si)).(j) in
                  let v = Floatx.lerp s_row.(b) s_row.(b + 1) fr.(si).(k) in
                  t.(j).(k) <- t.(j).(k) +. (weight *. v)
                end
              done
          done
      end
    done
  end;
  t

(* (tables, expected_width, unreliability, total) *)
let reference_pass config lib asg masking =
  let c = A.circuit asg in
  let n = Circuit.node_count c in
  let n_pos = Array.length c.Circuit.outputs in
  let timing = Ser_sta.Timing.analyze ~env:config.Analysis.env lib asg in
  let ws = Analysis.sample_widths config in
  let po_pos = Array.make n (-1) in
  Array.iteri (fun pos id -> po_pos.(id) <- pos) c.Circuit.outputs;
  let tables = Array.make n [||] in
  (* successors have larger ids: descending order is reverse topological *)
  for id = n - 1 downto 0 do
    if not (Circuit.is_input c id) then
      tables.(id) <-
        reference_ws_table config masking ~samples:ws ~po_pos
          ~delays:timing.Ser_sta.Timing.delays ~tables c id
  done;
  let expected_width = Array.make n [||] in
  let unreliability = Array.make n 0. in
  for id = 0 to n - 1 do
    if Circuit.is_input c id then expected_width.(id) <- Array.make n_pos 0.
    else begin
      let cell = A.get asg id in
      let node_cap =
        timing.Ser_sta.Timing.loads.(id) +. L.output_cap lib cell
      in
      let glitch output_low =
        L.generated_glitch_width lib cell ~node_cap
          ~charge:config.Analysis.charge ~output_low
      in
      let p1 = masking.Analysis.probs.(id) in
      let wi = ((1. -. p1) *. glitch true) +. (p1 *. glitch false) in
      let wij =
        Array.init n_pos (fun j ->
            if po_pos.(id) = j then wi
            else Lut.interpolate_1d ~xs:ws ~ys:tables.(id).(j) wi)
      in
      expected_width.(id) <- wij;
      unreliability.(id) <- L.area lib cell *. Floatx.sum wij
    end
  done;
  let total = ref 0. in
  Array.iter (fun u -> total := !total +. u) unreliability;
  (tables, expected_width, unreliability, !total)

let bits = Int64.bits_of_float
let same_row a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> bits x = bits y) a b

let electrical_matches_reference_prop =
  QCheck.Test.make ~count:10
    ~name:"run_electrical = reference pass, bit for bit"
    QCheck.(triple (int_bound 10_000) (int_range 10 60) (int_range 2 6))
    (fun (seed, n_gates, depth) ->
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
      let lib = L.create () in
      let asg = A.uniform lib c in
      List.for_all
        (fun (split, masking_backend) ->
          let config =
            {
              Analysis.default_config with
              Analysis.vectors = 300;
              seed = seed + 1;
              split;
              masking_backend;
            }
          in
          let masking = Analysis.compute_masking config c in
          let a = Analysis.run_electrical config lib asg masking in
          let tables, expected_width, unreliability, total =
            reference_pass config lib asg masking
          in
          Array.for_all2 (Array.for_all2 same_row) a.Analysis.tables tables
          && Array.for_all2 same_row a.Analysis.expected_width expected_width
          && same_row a.Analysis.unreliability unreliability
          && bits a.Analysis.total = bits total)
        [
          (Analysis.Normalized, Analysis.Monte_carlo);
          (Analysis.Normalized, Analysis.Analytic_masking);
          (Analysis.Naive, Analysis.Monte_carlo);
          (Analysis.Naive, Analysis.Analytic_masking);
        ])

let () =
  Alcotest.run "aserta"
    [
      ( "eq1",
        [
          Alcotest.test_case "regimes" `Quick test_eq1_regimes;
          QCheck_alcotest.to_alcotest eq1_monotone_prop;
          QCheck_alcotest.to_alcotest eq1_contraction_prop;
          Alcotest.test_case "chain" `Quick test_chain;
          Alcotest.test_case "amplitude model" `Quick test_amplitude_model;
          QCheck_alcotest.to_alcotest amplitude_never_amplifies_prop;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "sample widths" `Quick test_sample_widths;
          Alcotest.test_case "run basics" `Quick test_run_basic;
          Alcotest.test_case "PO width identity" `Quick test_po_gate_width_identity;
          Alcotest.test_case "widths bounded" `Quick test_expected_width_bounded;
          Alcotest.test_case "Eq-2 normalisation" `Slow test_pi_weight_normalisation;
          Alcotest.test_case "Lemma 1 (wide glitch)" `Quick test_lemma1_wide_glitch;
          Alcotest.test_case "masking reuse" `Quick test_masking_reuse;
          Alcotest.test_case "charge monotone" `Quick test_charge_monotone;
          Alcotest.test_case "naive split differs" `Slow test_naive_split_differs;
          Alcotest.test_case "analytic masking backend" `Quick test_analytic_masking_backend;
          Alcotest.test_case "biased inputs" `Quick test_biased_pi_config;
        ] );
      ( "ser_rate",
        [
          Alcotest.test_case "latch probability" `Quick test_latch_probability;
          Alcotest.test_case "basics" `Quick test_ser_rate_basic;
          Alcotest.test_case "spectrum slope" `Quick test_ser_rate_monotone_in_slope;
          Alcotest.test_case "clock period" `Quick test_ser_rate_monotone_in_clock;
          Alcotest.test_case "validation" `Quick test_ser_rate_validation;
          Alcotest.test_case "expected_width_at" `Quick test_expected_width_at;
        ] );
      ( "measured",
        [
          Alcotest.test_case "PO strike" `Quick test_measured_po_strike;
          Alcotest.test_case "logical masking" `Quick test_measured_logical_masking;
          Alcotest.test_case "tracks analysis" `Slow test_measured_unreliability_tracks_analysis;
          Alcotest.test_case "per-gate sums" `Quick test_measured_per_gate_sums;
          Alcotest.test_case "rejects PI" `Quick test_measured_rejects_pi;
        ] );
      ( "oracle",
        [ QCheck_alcotest.to_alcotest electrical_matches_reference_prop ] );
    ]
