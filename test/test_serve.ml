(* lib/serve: the framing codec is total, cache keys are
   content-addressed and order-invariant, the LRU and its persistence
   behave, the request/response codecs round-trip, and a live spawned
   daemon serves, caches and replays. *)

module Frame = Ser_serve.Frame
module Wire = Ser_serve.Wire
module Cache = Ser_serve.Cache
module Server = Ser_serve.Server
module Client = Ser_serve.Client
module Request = Ser_cli.Request
module Json = Ser_util.Json
module Diag = Ser_util.Diag
module Bench = Ser_netlist.Bench_format

(* ---------------------- qcheck: framing codec ---------------------- *)

let frame_roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"frame round-trips arbitrary payloads"
    QCheck.string
    (fun s ->
      match Frame.decode (Frame.encode_raw s) with
      | Frame.Complete { payload; consumed } ->
        payload = s && consumed = Frame.header_bytes + String.length s
      | _ -> false)

let frame_json_roundtrip_prop =
  QCheck.Test.make ~count:200 ~name:"frame round-trips JSON documents"
    QCheck.(list (pair printable_string small_int))
    (fun kvs ->
      let doc =
        Json.Obj
          (List.mapi
             (fun i (k, v) -> (Printf.sprintf "k%d_%s" i k, Json.int v))
             kvs)
      in
      match Frame.decode (Frame.encode doc) with
      | Frame.Complete { payload; _ } -> Json.of_string payload = Ok doc
      | _ -> false)

let frame_truncation_prop =
  QCheck.Test.make ~count:100
    ~name:"every strict frame prefix decodes Incomplete" QCheck.string
    (fun s ->
      let f = Frame.encode_raw s in
      let ok = ref true in
      for cut = 0 to String.length f - 1 do
        match Frame.decode (String.sub f 0 cut) with
        | Frame.Incomplete -> ()
        | _ -> ok := false
      done;
      !ok)

let frame_oversized_prop =
  QCheck.Test.make ~count:100
    ~name:"oversized frame yields typed Bad_length"
    QCheck.(string_of_size Gen.(int_range 1 200))
    (fun s ->
      match Frame.decode ~max:(String.length s - 1) (Frame.encode_raw s) with
      | Frame.Invalid (Frame.Bad_length { len; max }) ->
        len = String.length s && max = String.length s - 1
      | _ -> false)

let frame_garbage_prop =
  QCheck.Test.make ~count:200 ~name:"decode is total on arbitrary bytes"
    QCheck.string
    (fun s ->
      (* never an exception, and a negative announced length is typed *)
      (match Frame.decode s with
      | Frame.Complete _ | Frame.Incomplete | Frame.Invalid _ -> ());
      match Frame.decode ("\xff\xff\xff\xff" ^ s) with
      | Frame.Invalid (Frame.Bad_length { len; _ }) -> len < 0
      | _ -> false)

(* ------------------ qcheck: cache-key invariance ------------------- *)

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

let cache_key_order_prop =
  QCheck.Test.make ~count:50
    ~name:"cache key invariant under netlist declaration order"
    QCheck.small_int
    (fun seed ->
      let text = Lazy.force c17_text in
      match
        (Bench.parse_string text, Bench.parse_string (shuffle_lines seed text))
      with
      | Ok c1, Ok c2 ->
        Cache.circuit_digest c1 = Cache.circuit_digest c2
      | _ -> QCheck.Test.fail_report "shuffled c17 no longer parses")

(* ------------------------ cache directed --------------------------- *)

let tmpdir () =
  let d = Filename.temp_file "test-serve" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let v n = Json.Obj [ ("v", Json.int n) ]

let test_cache_lru () =
  let c, diags = Cache.create ~max_entries:2 () in
  Alcotest.(check int) "no load diags" 0 (List.length diags);
  Cache.add c "k1" (v 1);
  Cache.add c "k2" (v 2);
  ignore (Cache.find c "k1");
  (* k1 refreshed: the eviction victim must now be k2 *)
  Cache.add c "k3" (v 3);
  Alcotest.(check bool) "k1 survives" true (Cache.find c "k1" = Some (v 1));
  Alcotest.(check bool) "k2 evicted" true (Cache.find c "k2" = None);
  Alcotest.(check bool) "k3 present" true (Cache.find c "k3" = Some (v 3));
  let s = Cache.stats c in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions

let test_cache_persistence () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let c, _ = Cache.create ~dir () in
      Cache.add c "alpha" (v 1);
      Cache.add c "beta" (v 2);
      Alcotest.(check int) "flush clean" 0 (List.length (Cache.flush c));
      Alcotest.(check bool) "cache.json written" true
        (Sys.file_exists (Filename.concat dir "cache.json"));
      (* the atomic writer must not leave its temp file behind *)
      Alcotest.(check bool) "no temp residue" true
        (Array.for_all
           (fun f -> not (Filename.check_suffix f ".tmp"))
           (Sys.readdir dir));
      let c2, diags = Cache.create ~dir () in
      Alcotest.(check int) "reload clean" 0 (List.length diags);
      Alcotest.(check bool) "alpha reloaded" true
        (Cache.find c2 "alpha" = Some (v 1));
      Alcotest.(check bool) "beta reloaded" true
        (Cache.find c2 "beta" = Some (v 2)))

let test_cache_corrupt_file () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let oc = open_out (Filename.concat dir "cache.json") in
      output_string oc "]( definitely not a cache )[";
      close_out oc;
      let c, diags = Cache.create ~dir () in
      Alcotest.(check bool) "corruption diagnosed" true (diags <> []);
      Alcotest.(check int) "starts empty" 0 (Cache.stats c).Cache.entries)

let test_cache_enospc () =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let writer path _ = raise (Unix.Unix_error (Unix.ENOSPC, "write", path)) in
      let c, _ = Cache.create ~dir ~writer () in
      Cache.add c "k" (v 9);
      let diags = Cache.flush c in
      Alcotest.(check bool) "failure diagnosed" true (diags <> []);
      Alcotest.(check bool) "failure counted" true
        ((Cache.stats c).Cache.persist_errors >= 1);
      (* memory serving is unaffected *)
      Alcotest.(check bool) "entry still served" true
        (Cache.find c "k" = Some (v 9)))

(* --------------------- request / wire codecs ----------------------- *)

let test_request_roundtrip () =
  let reqs =
    [
      Request.make ~id:"a" ~vectors:123 ~charge:8.5 ~top:3
        ~vdds:[ 0.9; 1.0 ] ~deadline_s:2.5 ~isolate:true Request.Analyze
        (Request.Spec "c17");
      Request.make ~evals:17 ~greedy:1 ~budget_evals:9 ~fault:"sleep:10"
        Request.Optimize
        (Request.Inline_bench "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n");
      Request.make ~clock:250. ~q_slope:4.5 Request.Rate (Request.Spec "c432");
    ]
  in
  List.iter
    (fun r ->
      match Request.of_json (Request.to_json r) with
      | Error d -> Alcotest.failf "round-trip rejected: %s" (Diag.to_string d)
      | Ok r' ->
        Alcotest.(check bool) "record preserved" true (r' = r);
        Alcotest.(check string) "canonical params stable"
          (Json.to_string (Request.params_json r))
          (Json.to_string (Request.params_json r')))
    reqs

let test_request_rejects () =
  let cases =
    [
      ("no op", Json.Obj [ ("circuit", Json.Str "c17") ]);
      ( "unknown op",
        Json.Obj [ ("op", Json.Str "frob"); ("circuit", Json.Str "c17") ] );
      ("no circuit", Json.Obj [ ("op", Json.Str "analyze") ]);
      ( "bad vectors",
        Json.Obj
          [
            ("op", Json.Str "analyze");
            ("circuit", Json.Str "c17");
            ("vectors", Json.int (-5));
          ] );
      ( "negative budget_evals",
        Json.Obj
          [
            ("op", Json.Str "optimize");
            ("circuit", Json.Str "c17");
            ("budget_evals", Json.int (-1));
          ] );
    ]
  in
  List.iter
    (fun (name, j) ->
      match Request.of_json j with
      | Ok _ -> Alcotest.failf "%s: accepted" name
      | Error d ->
        Alcotest.(check string) (name ^ " subsystem") "cli" d.Diag.subsystem)
    cases

let test_wire_roundtrip () =
  let payload = v 42 in
  (match
     Wire.response_of_json
       (Wire.ok ~cache_hit:true ~id:(Some "r1") ~elapsed_s:0.25 payload)
   with
  | Ok r ->
    Alcotest.(check bool) "id" true (r.Wire.r_id = Some "r1");
    Alcotest.(check bool) "cache_hit" true r.Wire.r_cache_hit;
    Alcotest.(check bool) "payload" true (r.Wire.r_status = Wire.Ok_payload payload)
  | Error msg -> Alcotest.failf "ok envelope rejected: %s" msg);
  (* an absent provenance flag reads as false and an unknown one is
     ignored: older daemons also sent "warm", older clients read it *)
  Alcotest.(check bool) "no warm flag" true
    (Json.member "warm" (Wire.ok ~id:None ~elapsed_s:0. payload) = None);
  (match
     Wire.response_of_json
       (Json.Obj
          [ ("ok", Json.Bool true); ("warm", Json.Bool true);
            ("payload", payload) ])
   with
  | Ok r ->
    Alcotest.(check bool) "absent cache_hit" false r.Wire.r_cache_hit;
    Alcotest.(check bool) "absent replayed" false r.Wire.r_replayed;
    Alcotest.(check bool) "old envelope payload" true
      (r.Wire.r_status = Wire.Ok_payload payload)
  | Error msg -> Alcotest.failf "older envelope rejected: %s" msg);
  List.iter
    (fun reject ->
      let d = Diag.error ~subsystem:"serve" "synthetic" in
      match Wire.response_of_json (Wire.error ~id:None reject d) with
      | Ok { Wire.r_status = Wire.Rejected (k, _, _); _ } ->
        Alcotest.(check string) "reject kind preserved"
          (Wire.reject_to_string reject)
          (Wire.reject_to_string k)
      | Ok _ -> Alcotest.fail "error envelope decoded as success"
      | Error msg -> Alcotest.failf "error envelope rejected: %s" msg)
    [
      Wire.Bad_request; Wire.Overloaded; Wire.Deadline_exceeded;
      Wire.Worker_failed; Wire.Shutting_down; Wire.Internal;
    ];
  Alcotest.(check bool) "bad_request final" false
    (Wire.retryable Wire.Bad_request);
  Alcotest.(check bool) "deadline final" false
    (Wire.retryable Wire.Deadline_exceeded);
  Alcotest.(check bool) "overloaded retryable" true
    (Wire.retryable Wire.Overloaded)

(* ----------------------- end-to-end daemon ------------------------- *)

let client_opts =
  { Client.default_opts with Client.request_timeout_s = 60.; retries = 2 }

let analyze_json ?id () =
  Request.to_json
    (Request.make ?id ~vectors:200 Request.Analyze (Request.Spec "c17"))

let call_ok addr req =
  match Client.call ~opts:client_opts addr req with
  | Error d -> Alcotest.failf "call failed: %s" (Diag.to_string d)
  | Ok ({ Wire.r_status = Wire.Ok_payload _; _ } as r) -> r
  | Ok { Wire.r_status = Wire.Rejected (k, msg, _); _ } ->
    Alcotest.failf "rejected (%s): %s" (Wire.reject_to_string k) msg

(* Start a daemon on a private socket with the extra flags [args dir],
   run [f] against it, then SIGTERM it and require a clean drain. *)
let with_daemon ~args f =
  let dir = tmpdir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let socket = Filename.concat dir "d.sock" in
      let addr = Server.Unix_sock socket in
      let pid =
        Ser_faultsim.Harness.spawn_serve ~sertool:(Sertool_exe.get ()) ~socket
          ~spool_dir:dir (args dir)
      in
      let finish () =
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        try snd (Unix.waitpid [] pid) with Unix.Unix_error _ -> Unix.WEXITED 0
      in
      let result, status =
        Fun.protect
          ~finally:(fun () -> ignore (finish ()))
          (fun () ->
            Alcotest.(check bool) "daemon up" true
              (Client.wait_ready ~opts:client_opts addr);
            let result = f addr in
            (result, finish ()))
      in
      match status with
      | Unix.WEXITED 0 -> result
      | st ->
        Alcotest.failf "daemon did not drain cleanly: %s"
          (match st with
          | Unix.WEXITED n -> Printf.sprintf "exit %d" n
          | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
          | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n))

let test_daemon_smoke () =
  with_daemon
    ~args:(fun dir -> [ "--cache-dir"; Filename.concat dir "cache" ])
    (fun addr ->
      let r1 = call_ok addr (analyze_json ()) in
      Alcotest.(check bool) "first is computed" false r1.Wire.r_cache_hit;
      let r2 = call_ok addr (analyze_json ()) in
      Alcotest.(check bool) "repeat is a cache hit" true r2.Wire.r_cache_hit;
      Alcotest.(check bool) "identical payload" true
        (r1.Wire.r_status = r2.Wire.r_status);
      (* idempotent request ids replay without re-execution *)
      let r3 = call_ok addr (analyze_json ~id:"rq-1" ()) in
      Alcotest.(check bool) "fresh id executes" false r3.Wire.r_replayed;
      let r4 = call_ok addr (analyze_json ~id:"rq-1" ()) in
      Alcotest.(check bool) "repeated id replays" true r4.Wire.r_replayed;
      Alcotest.(check bool) "replay payload identical" true
        (r3.Wire.r_status = r4.Wire.r_status);
      match Client.health ~opts:client_opts addr with
      | Error d -> Alcotest.failf "health: %s" (Diag.to_string d)
      | Ok h ->
        Alcotest.(check bool) "health reports ok" true
          (Json.member "status" h = Some (Json.Str "ok")))

(* --------------------- cross-entry differential -------------------- *)

(* Every op, small enough for a unit test; odc once per mode. *)
let cross_entry_requests =
  let c17 = Request.Spec "c17" and c432 = Request.Spec "c432" in
  [
    ("analyze aserta", Request.make ~vectors:300 Request.Analyze c432);
    ("analyze serpp", Request.make ~backend:"serpp" Request.Analyze c432);
    ("rate", Request.make ~vectors:300 Request.Rate c432);
    ("odc exhaustive", Request.make ~vectors:256 Request.Odc c17);
    ( "odc sampled",
      Request.make ~vectors:256 ~odc_mode:"sampled" Request.Odc c432 );
    ( "optimize",
      Request.make ~vectors:200 ~evals:6 ~greedy:1 Request.Optimize c17 );
  ]

let worker_payload dir i req =
  let spool = Filename.concat dir (Printf.sprintf "req%d.json" i) in
  let out = Filename.concat dir (Printf.sprintf "out%d.json" i) in
  Out_channel.with_open_bin spool (fun oc ->
      output_string oc (Json.to_string (Request.to_json req)));
  let sertool = Sertool_exe.get () in
  let fd =
    Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process sertool
          [| sertool; "worker"; "--req-file"; spool |]
          Unix.stdin fd Unix.stderr)
  in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "worker %d did not exit 0" i);
  let doc = In_channel.with_open_bin out In_channel.input_all in
  match Json.of_string doc with
  | Ok j -> (
    match Json.member "result" j with
    | Some r -> r
    | None -> Alcotest.failf "worker %d: no result in %s" i doc)
  | Error msg -> Alcotest.failf "worker %d: %s" i msg

(* A fresh daemon per route: its cache must not answer the other
   route's requests. *)
let serve_payloads ~isolate =
  with_daemon ~args:(fun _ -> []) (fun addr ->
      List.map
        (fun (name, req) ->
          let r =
            call_ok addr
              (Request.to_json { req with Request.isolate = Some isolate })
          in
          Alcotest.(check bool) (name ^ " computed") false r.Wire.r_cache_hit;
          match r.Wire.r_status with
          | Wire.Ok_payload p -> p
          | Wire.Rejected _ -> assert false)
        cross_entry_requests)

(* One request set through the four ways in — in-process [Handlers.run],
   a [sertool worker --req-file] child, a daemon inline and a daemon
   with [isolate=true] — at whatever pool width SERTOOL_JOBS sets for
   this process and its worker children (the daemon itself runs at
   -j 1). Payloads must render byte for byte the same. *)
let test_cross_entry () =
  let render = Json.to_string ~indent:false in
  let direct =
    List.map
      (fun (name, req) ->
        match Ser_cli.Handlers.run req with
        | Ok p -> render p
        | Error d -> Alcotest.failf "%s: %s" name (Diag.to_string d))
      cross_entry_requests
  in
  let dir = tmpdir () in
  let worker =
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        List.mapi
          (fun i (_, req) -> render (worker_payload dir i req))
          cross_entry_requests)
  in
  let inline = List.map render (serve_payloads ~isolate:false) in
  let isolated = List.map render (serve_payloads ~isolate:true) in
  List.iteri
    (fun i (name, _) ->
      let expected = List.nth direct i in
      List.iter
        (fun (route, payloads) ->
          Alcotest.(check string) (name ^ " via " ^ route) expected
            (List.nth payloads i))
        [ ("worker", worker); ("serve inline", inline);
          ("serve isolated", isolated) ])
    cross_entry_requests

let () =
  Alcotest.run "serve"
    [
      ( "frame",
        List.map QCheck_alcotest.to_alcotest
          [
            frame_roundtrip_prop; frame_json_roundtrip_prop;
            frame_truncation_prop; frame_oversized_prop; frame_garbage_prop;
          ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "persistence round-trip" `Quick
            test_cache_persistence;
          Alcotest.test_case "corrupt file degrades" `Quick
            test_cache_corrupt_file;
          Alcotest.test_case "enospc contained" `Quick test_cache_enospc;
          QCheck_alcotest.to_alcotest cache_key_order_prop;
        ] );
      ( "codec",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "request validation" `Quick test_request_rejects;
          Alcotest.test_case "wire envelopes" `Quick test_wire_roundtrip;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "end-to-end smoke" `Quick test_daemon_smoke;
          Alcotest.test_case "cross-entry payloads identical" `Quick
            test_cross_entry;
        ] );
    ]
