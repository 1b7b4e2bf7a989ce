module L = Ser_cell.Library
module P = Ser_device.Cell_params
module Gate = Ser_netlist.Gate

let test_default_axes () =
  let ax = L.default_axes in
  Alcotest.(check int) "sizes" 4 (List.length ax.L.sizes);
  Alcotest.(check int) "lengths (the paper's 5)" 5 (List.length ax.L.lengths);
  Alcotest.(check bool) "70nm present" true (List.mem 70. ax.L.lengths);
  Alcotest.(check bool) "300nm present" true (List.mem 300. ax.L.lengths)

let test_restrict () =
  let ax = L.restrict ~vdds:[ 0.8; 1.0 ] L.default_axes in
  Alcotest.(check int) "vdds replaced" 2 (List.length ax.L.vdds);
  Alcotest.(check int) "sizes kept" 4 (List.length ax.L.sizes)

let test_variants_count () =
  let lib = L.create () in
  let vs = L.variants lib Gate.Nand 2 in
  (* 4 sizes x 5 lengths x 3 vdds x 3 vths, minus vth >= vdd combos
     (none here since max vth 0.3 < min vdd 0.8) *)
  Alcotest.(check int) "full menu" (4 * 5 * 3 * 3) (List.length vs);
  List.iter
    (fun (p : P.t) ->
      Alcotest.(check bool) "kind" true (p.P.kind = Gate.Nand);
      Alcotest.(check bool) "fanin" true (p.P.fanin = 2))
    vs;
  try
    ignore (L.variants lib Gate.Input 0);
    Alcotest.fail "Input variants accepted"
  with Invalid_argument _ -> ()

let test_variants_unique () =
  let lib = L.create () in
  let vs = L.variants lib Gate.Not 1 in
  let n = List.length vs in
  let uniq = List.sort_uniq P.compare vs in
  Alcotest.(check int) "no duplicates" n (List.length uniq)

let test_nominal () =
  let lib = L.create () in
  let p = L.nominal lib Gate.Nand 2 in
  Alcotest.(check (float 0.)) "size" 1. p.P.size;
  Alcotest.(check (float 0.)) "length" 70. p.P.length;
  Alcotest.(check (float 0.)) "vdd" 1.0 p.P.vdd;
  Alcotest.(check (float 0.)) "vth" 0.2 p.P.vth

let test_geometry_passthrough () =
  let lib = L.create () in
  let p = L.nominal lib Gate.Not 1 in
  Alcotest.(check (float 1e-12)) "input cap" (Ser_device.Gate_model.input_cap p)
    (L.input_cap lib p);
  Alcotest.(check (float 1e-12)) "area" (Ser_device.Gate_model.area p)
    (L.area lib p);
  Alcotest.(check bool) "switching energy positive" true
    (L.switching_energy lib p ~cload:2. > 0.)

let test_analytic_backend_delay () =
  let lib = L.create ~backend:L.Analytic () in
  let p = L.nominal lib Gate.Not 1 in
  Alcotest.(check (float 1e-12)) "matches closed form"
    (Ser_device.Gate_model.delay p ~input_ramp:20. ~cload:2.)
    (L.delay lib p ~input_ramp:20. ~cload:2.)

let test_transient_backend_tables () =
  let lib = L.create ~backend:L.Transient () in
  let p = L.nominal lib Gate.Not 1 in
  Alcotest.(check int) "cold cache" 0 (L.warm_cache_size lib);
  let d1 = L.delay lib p ~input_ramp:20. ~cload:2. in
  Alcotest.(check int) "warm after first query" 1 (L.warm_cache_size lib);
  let d2 = L.delay lib p ~input_ramp:20. ~cload:2. in
  Alcotest.(check (float 1e-12)) "memoised" d1 d2;
  (* interpolated value close to a direct transient measurement *)
  let direct, _ = Ser_spice.Char.delay_and_ramp p ~cload:2. ~input_ramp:20. in
  Alcotest.(check bool)
    (Printf.sprintf "tables track transient (%.2f vs %.2f)" d1 direct)
    true
    (Float.abs (d1 -. direct) /. direct < 0.15);
  let w =
    L.generated_glitch_width lib p ~node_cap:2. ~charge:16. ~output_low:true
  in
  let direct_w =
    Ser_spice.Char.generated_glitch_width p
      ~cload:(2. -. Ser_device.Gate_model.output_cap p)
      ~charge:16. ~output_low:true
  in
  Alcotest.(check bool)
    (Printf.sprintf "glitch tables track transient (%.1f vs %.1f)" w direct_w)
    true
    (Float.abs (w -. direct_w) /. direct_w < 0.2)

let test_backends_correlate () =
  (* analytic and transient glitch widths agree on ordering across a
     spread of variants *)
  let a = L.create ~backend:L.Analytic () in
  let t = L.create ~backend:L.Transient () in
  let variants =
    [
      P.v ~size:1. Gate.Not 1;
      P.v ~size:4. Gate.Not 1;
      P.v ~length:150. Gate.Not 1;
      P.v ~length:300. Gate.Not 1;
      P.v ~vdd:0.8 Gate.Not 1;
      P.v ~vth:0.3 Gate.Not 1;
    ]
  in
  let wa =
    Array.of_list
      (List.map
         (fun p -> L.generated_glitch_width a p ~node_cap:2. ~charge:16. ~output_low:true)
         variants)
  in
  let wt =
    Array.of_list
      (List.map
         (fun p -> L.generated_glitch_width t p ~node_cap:2. ~charge:16. ~output_low:true)
         variants)
  in
  let r = Ser_linalg.Stats.spearman wa wt in
  Alcotest.(check bool) (Printf.sprintf "rank correlation %.2f" r) true (r > 0.9)

(* The fused kernel is the pair of single lookups, bit for bit, on and
   off the characterisation grid. *)
let check_fused lib cells =
  let bits = Int64.bits_of_float in
  List.iter
    (fun p ->
      List.iter
        (fun input_ramp ->
          List.iter
            (fun cload ->
              let d, r = L.delay_and_ramp lib p ~input_ramp ~cload in
              if
                bits d <> bits (L.delay lib p ~input_ramp ~cload)
                || bits r <> bits (L.output_ramp lib p ~input_ramp ~cload)
              then
                Alcotest.failf "%s at ramp %g load %g" (P.to_string p)
                  input_ramp cload)
            [ 0.1; 0.8; 2.; 3.7; 12.; 30.; 90. ])
        [ 1.; 2.; 10.; 17.5; 80.; 160.; 400. ])
    cells

let test_fused_analytic () =
  let lib = L.create ~backend:L.Analytic () in
  List.iter
    (fun (kind, fanin) -> check_fused lib (L.variants lib kind fanin))
    [ (Gate.Not, 1); (Gate.Nand, 2); (Gate.Nor, 3); (Gate.And, 2); (Gate.Xor, 2) ]

let test_fused_transient () =
  (* c17-sized cells only: each variant costs a grid of transients *)
  let axes =
    L.restrict ~sizes:[ 1.; 2. ] ~lengths:[ 70. ] ~vdds:[ 1.0 ] ~vths:[ 0.2 ]
      L.default_axes
  in
  let lib = L.create ~backend:L.Transient ~axes () in
  check_fused lib (L.variants lib Gate.Nand 2)

let test_empty_axis_rejected () =
  try
    ignore (L.create ~axes:(L.restrict ~vdds:[] L.default_axes) ());
    Alcotest.fail "empty axis accepted"
  with Invalid_argument _ -> ()

let test_vth_below_vdd_filter () =
  (* a vth equal to a vdd must be filtered out of that vdd's variants *)
  let lib =
    L.create ~axes:(L.restrict ~vdds:[ 0.3; 1.0 ] ~vths:[ 0.2; 0.3 ] L.default_axes) ()
  in
  let vs = L.variants lib Gate.Not 1 in
  List.iter
    (fun (p : P.t) ->
      Alcotest.(check bool) "vth < vdd" true (p.P.vth < p.P.vdd))
    vs

let () =
  Alcotest.run "ser_cell"
    [
      ( "axes",
        [
          Alcotest.test_case "defaults" `Quick test_default_axes;
          Alcotest.test_case "restrict" `Quick test_restrict;
          Alcotest.test_case "empty rejected" `Quick test_empty_axis_rejected;
          Alcotest.test_case "vth<vdd filter" `Quick test_vth_below_vdd_filter;
        ] );
      ( "variants",
        [
          Alcotest.test_case "count" `Quick test_variants_count;
          Alcotest.test_case "unique" `Quick test_variants_unique;
          Alcotest.test_case "nominal corner" `Quick test_nominal;
        ] );
      ( "characterisation",
        [
          Alcotest.test_case "geometry passthrough" `Quick test_geometry_passthrough;
          Alcotest.test_case "analytic backend" `Quick test_analytic_backend_delay;
          Alcotest.test_case "transient tables" `Slow test_transient_backend_tables;
          Alcotest.test_case "backend agreement" `Slow test_backends_correlate;
          Alcotest.test_case "fused delay/ramp, analytic" `Quick
            test_fused_analytic;
          Alcotest.test_case "fused delay/ramp, transient" `Quick
            test_fused_transient;
        ] );
    ]
