module M = Ser_device.Mosfet
module P = Ser_device.Cell_params
module G = Ser_device.Gate_model
module Gate = Ser_netlist.Gate

let nominal_inv = P.nominal Gate.Not 1

(* ------------------------- mosfet ------------------------- *)

let test_cutoff_small () =
  let m = M.nmos ~vth:0.2 in
  let i = M.drain_current m ~w_over_l:1.4 ~vgs:0.0 ~vds:1.0 in
  Alcotest.(check bool) "off current tiny" true (i < 1e-4);
  Alcotest.(check bool) "off current positive" true (i > 0.)

let test_vds_zero () =
  let m = M.nmos ~vth:0.2 in
  Alcotest.(check (float 0.)) "no vds no current" 0.
    (M.drain_current m ~w_over_l:1.4 ~vgs:1.0 ~vds:0.)

let test_monotone_vgs () =
  let m = M.nmos ~vth:0.2 in
  let i v = M.drain_current m ~w_over_l:1.4 ~vgs:v ~vds:1.0 in
  Alcotest.(check bool) "increasing in vgs" true
    (i 0.4 < i 0.6 && i 0.6 < i 0.8 && i 0.8 < i 1.0)

let test_monotone_vds_linear () =
  let m = M.nmos ~vth:0.2 in
  let i v = M.drain_current m ~w_over_l:1.4 ~vgs:1.0 ~vds:v in
  Alcotest.(check bool) "increasing in vds below sat" true
    (i 0.05 < i 0.1 && i 0.1 < i 0.3);
  (* deep saturation is flat *)
  Alcotest.(check (float 1e-12)) "flat in saturation" (i 0.9) (i 1.0)

let test_saturation_current () =
  let m = M.nmos ~vth:0.2 in
  let isat = M.saturation_current m ~w_over_l:1.43 ~vgs:1.0 in
  (* calibration target: ~60 uA for a size-1 NMOS *)
  Alcotest.(check bool) "calibrated drive" true (isat > 0.04 && isat < 0.08)

let test_leakage_vth () =
  let hi = M.leakage_current (M.nmos ~vth:0.1) ~w_over_l:1.4 ~vdd:1.0 in
  let lo = M.leakage_current (M.nmos ~vth:0.3) ~w_over_l:1.4 ~vdd:1.0 in
  Alcotest.(check bool) "two vth steps >> 10x leakage" true (hi /. lo > 10.)

let test_pmos_weaker () =
  let n = M.saturation_current (M.nmos ~vth:0.2) ~w_over_l:1.4 ~vgs:1.0 in
  let p = M.saturation_current (M.pmos ~vth:0.2) ~w_over_l:1.4 ~vgs:1.0 in
  Alcotest.(check bool) "pmos mobility lower" true (p < n)

(* ------------------------- cell params ------------------------- *)

let test_params_validation () =
  let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "neg size" true (bad (fun () -> P.v ~size:(-1.) Gate.Not 1));
  Alcotest.(check bool) "short length" true (bad (fun () -> P.v ~length:50. Gate.Not 1));
  Alcotest.(check bool) "vth >= vdd" true (bad (fun () -> P.v ~vdd:0.8 ~vth:0.9 Gate.Not 1));
  Alcotest.(check bool) "input kind" true (bad (fun () -> P.v Gate.Input 0));
  Alcotest.(check bool) "bad fanin" true (bad (fun () -> P.v Gate.Nand 1));
  Alcotest.(check bool) "ok" false (bad (fun () -> P.v Gate.Nand 4))

let test_params_order () =
  let a = P.v ~size:1. Gate.Not 1 and b = P.v ~size:2. Gate.Not 1 in
  Alcotest.(check bool) "compare total order" true (P.compare a b <> 0);
  Alcotest.(check bool) "equal reflexive" true (P.equal a a);
  Alcotest.(check bool) "to_string mentions kind" true
    (String.length (P.to_string a) > 3)

(* ------------------------- gate model ------------------------- *)

let test_stages () =
  Alcotest.(check int) "not" 1 (List.length (G.stages nominal_inv));
  Alcotest.(check int) "buf" 2 (List.length (G.stages (P.nominal Gate.Buf 1)));
  Alcotest.(check int) "nand" 1 (List.length (G.stages (P.nominal Gate.Nand 3)));
  Alcotest.(check int) "and" 2 (List.length (G.stages (P.nominal Gate.And 2)));
  Alcotest.(check int) "xor" 2 (List.length (G.stages (P.nominal Gate.Xor 2)))

let test_input_cap_scaling () =
  let c1 = G.input_cap nominal_inv in
  let c4 = G.input_cap (P.v ~size:4. Gate.Not 1) in
  Alcotest.(check bool) "positive" true (c1 > 0.);
  Alcotest.(check bool) "scales with size" true (c4 > 3. *. c1 && c4 < 5. *. c1);
  let cl = G.input_cap (P.v ~length:140. Gate.Not 1) in
  Alcotest.(check bool) "grows with length" true (cl > c1)

let test_delay_monotonicity () =
  let d ?(p = nominal_inv) ?(ramp = 20.) cload = G.delay p ~input_ramp:ramp ~cload in
  Alcotest.(check bool) "more load slower" true (d 1. < d 4. && d 4. < d 16.);
  Alcotest.(check bool) "bigger faster" true
    (d ~p:(P.v ~size:4. Gate.Not 1) 4. < d 4.);
  Alcotest.(check bool) "longer slower" true
    (d ~p:(P.v ~length:200. Gate.Not 1) 4. > d 4.);
  Alcotest.(check bool) "low vdd slower" true
    (d ~p:(P.v ~vdd:0.8 Gate.Not 1) 4. > d 4.);
  Alcotest.(check bool) "high vth slower" true
    (d ~p:(P.v ~vth:0.3 Gate.Not 1) 4. > d 4.);
  Alcotest.(check bool) "slower input ramp slower" true (d ~ramp:80. 4. > d ~ramp:5. 4.)

let test_output_ramp () =
  let r = G.output_ramp nominal_inv ~input_ramp:20. ~cload:2. in
  Alcotest.(check bool) "positive" true (r > 0.);
  let r_heavy = G.output_ramp nominal_inv ~input_ramp:20. ~cload:10. in
  Alcotest.(check bool) "heavier load slower edge" true (r_heavy > r)

let test_fo4_calibration () =
  let cin = G.input_cap nominal_inv in
  let d = G.delay nominal_inv ~input_ramp:20. ~cload:(4. *. cin) in
  Alcotest.(check bool) "FO4 in 10-40 ps (70nm-class)" true (d > 10. && d < 40.)

let test_glitch_monotone_charge () =
  let w q =
    G.generated_glitch_width nominal_inv ~node_cap:2. ~charge:q ~output_low:true
  in
  Alcotest.(check (float 0.)) "below critical charge" 0. (w 0.5);
  Alcotest.(check bool) "monotone" true (w 4. <= w 8. && w 8. < w 16. && w 16. < w 64.)

let test_glitch_directions () =
  (* PMOS restore (high node) is weaker -> wider glitch *)
  let low =
    G.generated_glitch_width nominal_inv ~node_cap:2. ~charge:16. ~output_low:true
  in
  let high =
    G.generated_glitch_width nominal_inv ~node_cap:2. ~charge:16. ~output_low:false
  in
  Alcotest.(check bool) "weak pull-up wider" true (high >= low)

let test_glitch_paper_trends () =
  (* the Fig-1 claim: anything that slows the gate widens the glitch *)
  let w p = G.generated_glitch_width p ~node_cap:2. ~charge:16. ~output_low:true in
  let base = w nominal_inv in
  Alcotest.(check bool) "bigger size narrower" true (w (P.v ~size:4. Gate.Not 1) < base);
  Alcotest.(check bool) "longer channel wider" true (w (P.v ~length:200. Gate.Not 1) > base);
  Alcotest.(check bool) "lower vdd wider" true (w (P.v ~vdd:0.8 Gate.Not 1) > base);
  Alcotest.(check bool) "higher vth wider" true (w (P.v ~vth:0.3 Gate.Not 1) > base)

let test_critical_charge () =
  let q = G.critical_charge nominal_inv ~node_cap:2. ~output_low:true in
  Alcotest.(check bool) "positive, few fC" true (q > 0.3 && q < 10.);
  let q_big =
    G.critical_charge (P.v ~size:8. Gate.Not 1) ~node_cap:2. ~output_low:true
  in
  Alcotest.(check bool) "stronger gate higher Qcrit" true (q_big > q);
  Alcotest.(check (float 0.)) "width zero at Qcrit" 0.
    (G.generated_glitch_width nominal_inv ~node_cap:2. ~charge:q ~output_low:true)

let test_area_energy () =
  let a1 = G.area nominal_inv in
  Alcotest.(check bool) "positive" true (a1 > 0.);
  Alcotest.(check bool) "size scales area" true
    (G.area (P.v ~size:2. Gate.Not 1) > 1.8 *. a1);
  Alcotest.(check bool) "length scales area" true
    (G.area (P.v ~length:140. Gate.Not 1) > 1.8 *. a1);
  Alcotest.(check bool) "nand2 bigger than inv" true
    (G.area (P.nominal Gate.Nand 2) > a1);
  let e1 = G.switching_energy nominal_inv ~cload:2. in
  let e2 = G.switching_energy (P.v ~vdd:1.2 Gate.Not 1) ~cload:2. in
  Alcotest.(check bool) "energy ~ vdd^2" true
    (e2 /. e1 > 1.3 && e2 /. e1 < 1.6)

let test_leakage_power () =
  let p02 = G.leakage_power nominal_inv in
  let p01 = G.leakage_power (P.v ~vth:0.1 Gate.Not 1) in
  Alcotest.(check bool) "low vth leaks much more" true (p01 /. p02 > 5.)

let test_drive_at () =
  (* restoring current falls to ~0 as the node reaches the rail *)
  let near_rail = G.drive_at nominal_inv G.Pull_down ~vout:0.01 in
  let mid = G.drive_at nominal_inv G.Pull_down ~vout:0.5 in
  Alcotest.(check bool) "monotone in displacement" true (near_rail < mid);
  let up = G.drive_at nominal_inv G.Pull_up ~vout:0.99 in
  Alcotest.(check bool) "pull-up symmetric logic" true (up < G.drive_at nominal_inv G.Pull_up ~vout:0.5)

(* Delay and output ramp of the closed form, pinned to the bits the
   original per-call stage walk produced, so that resolving the cell-only
   terms once ([timing_model]) can never drift the STA: every downstream
   result is promised bit-identical across that refactor. *)
let timing_pins =
  [
    ("NOT1 x1.00 L70 V1.00 T0.20", 2., 0.3, 0x1.8624d7995f5f7p+2, 0x1.ff971b84c18e8p+2);
    ("NOT1 x1.00 L70 V1.00 T0.20", 20., 2., 0x1.a8038947f5b9ep+4, 0x1.0b87f2f1e34dp+5);
    ("NOT1 x1.00 L70 V1.00 T0.20", 160., 30., 0x1.43769d78fc3ccp+8, 0x1.c494d2ff04384p+8);
    ("NAND2 x2.00 L100 V0.80 T0.30", 2., 0.3, 0x1.4ef244c72e66cp+3, 0x1.df981c1ff8528p+3);
    ("NAND2 x2.00 L100 V0.80 T0.30", 20., 2., 0x1.20df43d04bb9ap+5, 0x1.8683f19f317bp+5);
    ("NAND2 x2.00 L100 V0.80 T0.30", 160., 30., 0x1.a3544929c5f55p+8, 0x1.2efbbfa689e2fp+9);
    ("NOR3 x4.00 L150 V1.20 T0.10", 2., 0.3, 0x1.25e2d7a1b0c3ap+3, 0x1.9de5d3e3fc1a5p+3);
    ("NOR3 x4.00 L150 V1.20 T0.10", 20., 2., 0x1.963d88bb97971p+4, 0x1.fa9fe5032ffbfp+4);
    ("NOR3 x4.00 L150 V1.20 T0.10", 160., 30., 0x1.fa646518de7e7p+7, 0x1.54275b1e22a2ap+8);
    ("AND2 x8.00 L70 V1.00 T0.20", 2., 0.3, 0x1.43f6bcb096ef2p+3, 0x1.0cba851b4ea91p+1);
    ("AND2 x8.00 L70 V1.00 T0.20", 20., 2., 0x1.09caa8c47f33dp+4, 0x1.51f2520ef26fcp+2);
    ("AND2 x8.00 L70 V1.00 T0.20", 160., 30., 0x1.516ddca35e3d8p+6, 0x1.cd621ee2a61c8p+5);
    ("XOR2 x1.00 L300 V1.20 T0.30", 2., 0.3, 0x1.35a12bd17244ep+7, 0x1.abd7f107e208ap+5);
    ("XOR2 x1.00 L300 V1.20 T0.30", 20., 2., 0x1.efdec19e0d215p+7, 0x1.868bb8bc89e2ep+7);
    ("XOR2 x1.00 L300 V1.20 T0.30", 160., 30., 0x1.b3a40c9cc43cdp+10, 0x1.3c55b24631185p+11);
    ("BUF1 x2.00 L250 V0.80 T0.10", 2., 0.3, 0x1.1843b7dfcb601p+6, 0x1.f712ae35e60a7p+3);
    ("BUF1 x2.00 L250 V0.80 T0.10", 20., 2., 0x1.9660df3aa7174p+6, 0x1.d7bb8fe36bccfp+5);
    ("BUF1 x2.00 L250 V0.80 T0.10", 160., 30., 0x1.22e27bfcbee3ap+9, 0x1.819f85ed46bep+9);
  ]

let test_timing_pinned () =
  let cell name =
    let kind, fanin, size, length, vdd, vth =
      Scanf.sscanf name "%[A-Z]%d x%f L%f V%f T%f" (fun k f s l v t ->
          (Option.get (Gate.of_string k), f, s, l, v, t))
    in
    P.v ~size ~length ~vdd ~vth kind fanin
  in
  List.iter
    (fun (name, input_ramp, cload, d, r) ->
      let p = cell name in
      let m = G.timing_model p in
      let d', r' = G.eval_timing m ~input_ramp ~cload in
      let at = Printf.sprintf "%s ramp %g load %g" name input_ramp cload in
      Alcotest.(check int64) (at ^ " delay") (Int64.bits_of_float d)
        (Int64.bits_of_float d');
      Alcotest.(check int64) (at ^ " ramp") (Int64.bits_of_float r)
        (Int64.bits_of_float r');
      Alcotest.(check bool) (at ^ " projections") true
        (Int64.bits_of_float (G.delay p ~input_ramp ~cload) = Int64.bits_of_float d
        && Int64.bits_of_float (G.output_ramp p ~input_ramp ~cload)
           = Int64.bits_of_float r))
    timing_pins

let () =
  Alcotest.run "ser_device"
    [
      ( "mosfet",
        [
          Alcotest.test_case "cutoff" `Quick test_cutoff_small;
          Alcotest.test_case "vds zero" `Quick test_vds_zero;
          Alcotest.test_case "monotone vgs" `Quick test_monotone_vgs;
          Alcotest.test_case "linear region" `Quick test_monotone_vds_linear;
          Alcotest.test_case "calibration" `Quick test_saturation_current;
          Alcotest.test_case "leakage vs vth" `Quick test_leakage_vth;
          Alcotest.test_case "pmos weaker" `Quick test_pmos_weaker;
        ] );
      ( "cell params",
        [
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "ordering" `Quick test_params_order;
        ] );
      ( "gate model",
        [
          Alcotest.test_case "stage decomposition" `Quick test_stages;
          Alcotest.test_case "input cap" `Quick test_input_cap_scaling;
          Alcotest.test_case "delay monotonicity" `Quick test_delay_monotonicity;
          Alcotest.test_case "output ramp" `Quick test_output_ramp;
          Alcotest.test_case "timing bits pinned" `Quick test_timing_pinned;
          Alcotest.test_case "FO4 calibration" `Quick test_fo4_calibration;
          Alcotest.test_case "glitch vs charge" `Quick test_glitch_monotone_charge;
          Alcotest.test_case "glitch directions" `Quick test_glitch_directions;
          Alcotest.test_case "paper Fig-1 trends" `Quick test_glitch_paper_trends;
          Alcotest.test_case "critical charge" `Quick test_critical_charge;
          Alcotest.test_case "area & energy" `Quick test_area_energy;
          Alcotest.test_case "leakage power" `Quick test_leakage_power;
          Alcotest.test_case "drive_at" `Quick test_drive_at;
        ] );
    ]
