(* The fault-injection harness: every corruption scenario must be
   absorbed by the resilience layer -- rejected with a located
   diagnostic, or flagged degraded -- and no exception may ever
   escape. *)

module H = Ser_faultsim.Harness
module Diag = Ser_util.Diag

let results = lazy (H.run_all ~sertool:(Sertool_exe.get ()))

let test_catalogue_size () =
  let n = List.length (Lazy.force results) in
  Alcotest.(check bool)
    (Printf.sprintf "at least 25 scenarios (got %d)" n)
    true (n >= 25)

let test_jobs_group_present () =
  (* the supervisor scenarios fork real child processes; make sure the
     group is in the catalogue and actually ran *)
  let js =
    List.filter
      (fun ((s : H.scenario), _) -> s.H.group = "jobs")
      (Lazy.force results)
  in
  Alcotest.(check bool)
    (Printf.sprintf "jobs scenarios present (got %d)" (List.length js))
    true
    (List.length js >= 6)

let test_shard_group_present () =
  (* the sharded-sweep scenarios fork supervised workers and merge
     their journals; make sure the group is in the catalogue and ran *)
  let ss =
    List.filter
      (fun ((s : H.scenario), _) -> s.H.group = "shard")
      (Lazy.force results)
  in
  Alcotest.(check bool)
    (Printf.sprintf "shard scenarios present (got %d)" (List.length ss))
    true
    (List.length ss >= 6)

let test_serve_group_present () =
  (* the daemon scenarios fork a live sertool-serve child; make sure
     the group is in the catalogue and actually ran *)
  let ss =
    List.filter
      (fun ((s : H.scenario), _) -> s.H.group = "serve")
      (Lazy.force results)
  in
  Alcotest.(check bool)
    (Printf.sprintf "serve scenarios present (got %d)" (List.length ss))
    true
    (List.length ss >= 7)

let test_zero_uncaught () =
  List.iter
    (fun ((s : H.scenario), outcome) ->
      match outcome with
      | H.Uncaught _ ->
        Alcotest.failf "%s/%s: %s" s.H.group s.H.name
          (H.outcome_to_string outcome)
      | _ -> ())
    (Lazy.force results)

let test_expectations_met () =
  List.iter
    (fun ((s : H.scenario), outcome) ->
      if not (H.satisfies s.H.expect outcome) then
        Alcotest.failf "%s/%s: unexpected outcome %s" s.H.group s.H.name
          (H.outcome_to_string outcome))
    (Lazy.force results)

let test_parser_diags_located () =
  (* bench-parser rejections must point at the offending line *)
  List.iter
    (fun ((s : H.scenario), outcome) ->
      if s.H.group = "parser" then
        match outcome with
        | H.Graceful d ->
          if Diag.context_value d "line" = None then
            Alcotest.failf "%s: diagnostic has no line context: %s" s.H.name
              (Diag.to_string d)
        | _ -> ())
    (Lazy.force results)

let test_rejections_structured () =
  (* every rejection names the subsystem that produced it *)
  List.iter
    (fun ((s : H.scenario), outcome) ->
      match outcome with
      | H.Graceful d ->
        if d.Diag.subsystem = "" then
          Alcotest.failf "%s: diagnostic without subsystem" s.H.name
      | _ -> ())
    (Lazy.force results)

(* ------------- qcheck: analysis output is always sane ------------- *)

let analysis_sane_prop =
  QCheck.Test.make ~count:8 ~name:"aserta unreliability finite and non-negative"
    QCheck.(pair (int_bound 1000) (float_bound_inclusive 64.))
    (fun (seed, charge) ->
      let charge = Float.max 1. charge in
      let c = Ser_circuits.Iscas.load ~seed:(seed + 1) "c17" in
      let lib = Ser_cell.Library.create () in
      let asg = Ser_sta.Assignment.uniform lib c in
      let config =
        {
          Aserta.Analysis.default_config with
          Aserta.Analysis.vectors = 300;
          seed = seed + 1;
          charge;
        }
      in
      match Aserta.Analysis.run_checked ~config lib asg with
      | Error d ->
        QCheck.Test.fail_reportf "valid circuit rejected: %s" (Diag.to_string d)
      | Ok t ->
        Array.for_all
          (fun u -> Float.is_finite u && u >= 0.)
          t.Aserta.Analysis.unreliability
        && Float.is_finite t.Aserta.Analysis.total
        && t.Aserta.Analysis.total >= 0.)

(* ------------- no fork in a process that may hold domains ------------- *)

(* OCaml 5 refuses to fork once other domains exist, and any library
   function may run after the pool has spawned, so no source under lib/
   may mention it at all. The sources are the copies dune keeps next
   to the built libraries. *)
let test_no_fork_in_lib () =
  let forbidden = "Unix" ^ ".fork" in
  let contains text =
    let n = String.length forbidden in
    let rec at i =
      i + n <= String.length text
      && (String.sub text i n = forbidden || at (i + 1))
    in
    at 0
  in
  let rec sources dir =
    Sys.readdir dir |> Array.to_list
    |> List.concat_map (fun e ->
           let p = Filename.concat dir e in
           if Sys.is_directory p then sources p
           else if
             Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
           then [ p ]
           else [])
  in
  let lib =
    Filename.concat (Filename.dirname Sys.executable_name)
      (Filename.concat Filename.parent_dir_name "lib")
  in
  let files = sources lib in
  Alcotest.(check bool)
    (Printf.sprintf "lib/ sources found (got %d)" (List.length files))
    true
    (List.length files >= 40);
  List.iter
    (fun f ->
      if contains (In_channel.with_open_bin f In_channel.input_all) then
        Alcotest.failf "%s mentions %s" f forbidden)
    files

let () =
  Alcotest.run "faultsim"
    [
      ( "harness",
        [
          Alcotest.test_case "catalogue size" `Quick test_catalogue_size;
          Alcotest.test_case "jobs group present" `Quick test_jobs_group_present;
          Alcotest.test_case "shard group present" `Quick
            test_shard_group_present;
          Alcotest.test_case "serve group present" `Quick
            test_serve_group_present;
          Alcotest.test_case "zero uncaught exceptions" `Quick
            test_zero_uncaught;
          Alcotest.test_case "expectations met" `Quick test_expectations_met;
          Alcotest.test_case "parser diags located" `Quick
            test_parser_diags_located;
          Alcotest.test_case "rejections structured" `Quick
            test_rejections_structured;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest analysis_sane_prop ] );
      ( "lib",
        [
          Alcotest.test_case "no fork under lib/" `Quick test_no_fork_in_lib;
        ] );
    ]
