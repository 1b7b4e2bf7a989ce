module Json = Ser_util.Json
module Diag = Ser_util.Diag

let subsystem = "cli"

type source = Spec of string | Inline_bench of string
type op = Analyze | Optimize | Rate | Odc

let op_to_string = function
  | Analyze -> "analyze"
  | Optimize -> "optimize"
  | Rate -> "rate"
  | Odc -> "odc"

let op_of_string = function
  | "analyze" -> Some Analyze
  | "optimize" -> Some Optimize
  | "rate" -> Some Rate
  | "odc" -> Some Odc
  | _ -> None

type t = {
  id : string option;
  op : op;
  source : source;
  backend : string;
  vectors : int;
  charge : float;
  top : int;
  vdds : float list;
  vths : float list;
  evals : int;
  greedy : int;
  eval_tier : string;
  tier_k : int;
  budget_evals : int option;
  clock : float option;
  q_slope : float;
  deadline_s : float option;
  isolate : bool option;
  fault : string option;
  odc_mode : string;
  odc_seed : int;
  odc_threshold : float;
}

let default_vectors = function
  | Analyze -> 10_000
  | Optimize | Rate | Odc -> 4_000

let make ?id ?(backend = "aserta") ?vectors ?(charge = 16.) ?(top = 10)
    ?(vdds = []) ?(vths = []) ?(evals = 120) ?(greedy = 2)
    ?(eval_tier = "exact") ?(tier_k = 6) ?budget_evals ?clock ?(q_slope = 6.)
    ?deadline_s ?isolate ?fault ?(odc_mode = "exhaustive") ?(odc_seed = 1)
    ?(odc_threshold = 0.05) op source =
  let vectors =
    match vectors with Some v -> v | None -> default_vectors op
  in
  {
    id;
    op;
    source;
    backend;
    vectors;
    charge;
    top;
    vdds;
    vths;
    evals;
    greedy;
    eval_tier;
    tier_k;
    budget_evals;
    clock;
    q_slope;
    deadline_s;
    isolate;
    fault;
    odc_mode;
    odc_seed;
    odc_threshold;
  }

let floats vs = Json.List (List.map (fun v -> Json.Num v) vs)

let source_json = function
  | Spec s -> Json.Obj [ ("spec", Json.Str s) ]
  | Inline_bench text -> Json.Obj [ ("bench", Json.Str text) ]

let to_json t =
  Json.Obj
    (Json.field_opt "id" (Option.map (fun s -> Json.Str s) t.id)
    @ [
        ("op", Json.Str (op_to_string t.op));
        ("circuit", source_json t.source);
        ("backend", Json.Str t.backend);
        ("vectors", Json.int t.vectors);
        ("charge", Json.Num t.charge);
        ("top", Json.int t.top);
        ("vdds", floats t.vdds);
        ("vths", floats t.vths);
        ("evals", Json.int t.evals);
        ("greedy", Json.int t.greedy);
        ("eval_tier", Json.Str t.eval_tier);
        ("tier_k", Json.int t.tier_k);
      ]
    @ Json.field_opt "budget_evals" (Option.map Json.int t.budget_evals)
    @ Json.field_opt "clock" (Option.map (fun v -> Json.Num v) t.clock)
    @ [ ("q_slope", Json.Num t.q_slope) ]
    @ Json.field_opt "deadline_s"
        (Option.map (fun v -> Json.Num v) t.deadline_s)
    @ Json.field_opt "isolate" (Option.map (fun b -> Json.Bool b) t.isolate)
    @ Json.field_opt "fault" (Option.map (fun s -> Json.Str s) t.fault)
    @ [
        ("odc_mode", Json.Str t.odc_mode);
        ("odc_seed", Json.int t.odc_seed);
        ("odc_threshold", Json.Num t.odc_threshold);
      ])

(* -------------------------- decoding ------------------------------ *)

let err fmt = Printf.ksprintf (fun m -> Error (Diag.make ~subsystem m)) fmt

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let opt_field j name decode kind =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match decode v with
    | Some x -> Ok (Some x)
    | None -> err "request field %S must be %s" name kind)

let int_field j name ~default =
  let* v = opt_field j name Json.to_int_opt "an integer" in
  Ok (Option.value v ~default)

let num_field j name ~default =
  let* v = opt_field j name Json.to_float_opt "a number" in
  Ok (Option.value v ~default)

let float_list_field j name =
  match Json.member name j with
  | None | Some Json.Null -> Ok []
  | Some (Json.List items) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | x :: rest -> (
        match Json.to_float_opt x with
        | Some v -> go (v :: acc) rest
        | None -> err "request field %S must list numbers" name)
    in
    go [] items
  | Some _ -> err "request field %S must be a list of numbers" name

let source_of_json j =
  match Json.member "circuit" j with
  | Some (Json.Str s) when s <> "" -> Ok (Spec s)
  | Some (Json.Obj _ as o) -> (
    match (Json.member "spec" o, Json.member "bench" o) with
    | Some (Json.Str s), _ when s <> "" -> Ok (Spec s)
    | _, Some (Json.Str text) when text <> "" -> Ok (Inline_bench text)
    | _ -> err "request circuit object needs a nonempty \"spec\" or \"bench\"")
  | Some _ -> err "request field \"circuit\" must be a string or an object"
  | None -> err "request is missing the \"circuit\" field"

let of_json j =
  match j with
  | Json.Obj _ ->
    let* op =
      match Json.member "op" j with
      | Some (Json.Str s) -> (
        match op_of_string s with
        | Some op -> Ok op
        | None -> err "unknown op %S (want analyze, optimize, rate or odc)" s)
      | Some _ -> err "request field \"op\" must be a string"
      | None -> err "request is missing the \"op\" field"
    in
    let* source = source_of_json j in
    let* id = opt_field j "id" Json.to_str_opt "a string" in
    let* backend = opt_field j "backend" Json.to_str_opt "a string" in
    let backend = Option.value backend ~default:"aserta" in
    let* vectors = int_field j "vectors" ~default:(default_vectors op) in
    let* charge = num_field j "charge" ~default:16. in
    let* top = int_field j "top" ~default:10 in
    let* vdds = float_list_field j "vdds" in
    let* vths = float_list_field j "vths" in
    let* evals = int_field j "evals" ~default:120 in
    let* greedy = int_field j "greedy" ~default:2 in
    let* eval_tier = opt_field j "eval_tier" Json.to_str_opt "a string" in
    let eval_tier = Option.value eval_tier ~default:"exact" in
    let* tier_k = int_field j "tier_k" ~default:6 in
    let* budget_evals = opt_field j "budget_evals" Json.to_int_opt "an integer" in
    let* clock = opt_field j "clock" Json.to_float_opt "a number" in
    let* q_slope = num_field j "q_slope" ~default:6. in
    let* deadline_s = opt_field j "deadline_s" Json.to_float_opt "a number" in
    let* isolate =
      opt_field j "isolate"
        (function Json.Bool b -> Some b | _ -> None)
        "a boolean"
    in
    let* fault = opt_field j "fault" Json.to_str_opt "a string" in
    let* odc_mode = opt_field j "odc_mode" Json.to_str_opt "a string" in
    let odc_mode = Option.value odc_mode ~default:"exhaustive" in
    let* odc_seed = int_field j "odc_seed" ~default:1 in
    let* odc_threshold = num_field j "odc_threshold" ~default:0.05 in
    if vectors < 1 then err "vectors must be >= 1 (got %d)" vectors
    else if (not (Float.is_finite charge)) || charge <= 0. then
      err "charge must be finite and positive"
    else if top < 0 then err "top must be >= 0"
    else if evals < 0 then err "evals must be >= 0"
    else if greedy < 0 then err "greedy must be >= 0"
    else if match budget_evals with Some n -> n < 0 | None -> false then
      err "budget_evals must be >= 0"
    else if backend <> "aserta" && backend <> "serpp" then
      err "unknown backend %S (want aserta or serpp)" backend
    else if backend = "serpp" && op = Rate then
      err "the rate op requires the aserta backend"
    else if backend = "serpp" && op = Odc then
      err "the odc op is backend-free and rejects backend=serpp"
    else if odc_mode <> "exhaustive" && odc_mode <> "sampled" then
      err "unknown odc_mode %S (want exhaustive or sampled)" odc_mode
    else if
      (not (Float.is_finite odc_threshold))
      || odc_threshold < 0. || odc_threshold > 1.
    then err "odc_threshold must be in [0, 1]"
    else if eval_tier <> "exact" && eval_tier <> "serpp" then
      err "unknown eval_tier %S (want exact or serpp)" eval_tier
    else if tier_k < 1 then err "tier_k must be >= 1 (got %d)" tier_k
    else if
      match deadline_s with Some d -> (not (Float.is_finite d)) || d <= 0. | None -> false
    then err "deadline_s must be finite and positive"
    else
      Ok
        {
          id;
          op;
          source;
          backend;
          vectors;
          charge;
          top;
          vdds;
          vths;
          evals;
          greedy;
          eval_tier;
          tier_k;
          budget_evals;
          clock;
          q_slope;
          deadline_s;
          isolate;
          fault;
          odc_mode;
          odc_seed;
          odc_threshold;
        }
  | _ -> err "request must be a JSON object"

let params_json t =
  let shared =
    [ ("op", Json.Str (op_to_string t.op)); ("vectors", Json.int t.vectors) ]
  in
  let axes = [ ("vdds", floats t.vdds); ("vths", floats t.vths) ] in
  match t.op with
  | Analyze ->
    (* the backend is part of the analyze cache identity: the two
       estimators legitimately answer differently for one circuit *)
    Json.Obj
      (shared
      @ [
          ("backend", Json.Str t.backend);
          ("charge", Json.Num t.charge);
          ("top", Json.int t.top);
        ]
      @ axes)
  | Optimize ->
    Json.Obj
      (shared
      @ [
          ("evals", Json.int t.evals);
          ("greedy", Json.int t.greedy);
          ("eval_tier", Json.Str t.eval_tier);
          ("tier_k", Json.int t.tier_k);
        ]
      @ Json.field_opt "budget_evals" (Option.map Json.int t.budget_evals)
      @ axes)
  | Rate ->
    Json.Obj
      (shared
      @ Json.field_opt "clock" (Option.map (fun v -> Json.Num v) t.clock)
      @ [ ("q_slope", Json.Num t.q_slope); ("top", Json.int t.top) ]
      @ axes)
  | Odc ->
    (* no library involved: the vdd/vth axes and the charge cannot
       change the answer and stay out of the cache identity *)
    Json.Obj
      (shared
      @ [
          ("odc_mode", Json.Str t.odc_mode);
          ("odc_seed", Json.int t.odc_seed);
          ("odc_threshold", Json.Num t.odc_threshold);
        ])
