module Json = Ser_util.Json
module Diag = Ser_util.Diag

type reject =
  | Bad_request
  | Overloaded
  | Deadline_exceeded
  | Worker_failed
  | Shutting_down
  | Internal

let reject_to_string = function
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Worker_failed -> "worker_failed"
  | Shutting_down -> "shutting_down"
  | Internal -> "internal"

let reject_of_string = function
  | "bad_request" -> Some Bad_request
  | "overloaded" -> Some Overloaded
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "worker_failed" -> Some Worker_failed
  | "shutting_down" -> Some Shutting_down
  | "internal" -> Some Internal
  | _ -> None

let retryable = function
  | Overloaded | Worker_failed | Shutting_down | Internal -> true
  | Bad_request | Deadline_exceeded -> false

let id_field id = Json.field_opt "id" (Option.map (fun s -> Json.Str s) id)

let ok ?(cache_hit = false) ?(replayed = false) ~id ~elapsed_s payload =
  Json.Obj
    (("ok", Json.Bool true) :: id_field id
    @ [
        ("cache_hit", Json.Bool cache_hit);
        ("replayed", Json.Bool replayed);
        ("elapsed_s", Json.Num elapsed_s);
        ("payload", payload);
      ])

let error ~id reject diag =
  Json.Obj
    (("ok", Json.Bool false) :: id_field id
    @ [
        ("error", Json.Str (reject_to_string reject));
        ("diag", Diag.to_json diag);
      ])

type response = {
  r_id : string option;
  r_status : status;
  r_cache_hit : bool;
  r_replayed : bool;
  r_elapsed_s : float;
}

and status =
  | Ok_payload of Ser_util.Json.t
  | Rejected of reject * string * Ser_util.Json.t

let bool_member name j =
  match Json.member name j with Some (Json.Bool b) -> b | _ -> false

let response_of_json j =
  match j with
  | Json.Obj _ -> (
    let r_id =
      match Json.member "id" j with Some (Json.Str s) -> Some s | _ -> None
    in
    match Json.member "ok" j with
    | Some (Json.Bool true) -> (
      match Json.member "payload" j with
      | Some payload ->
        Ok
          {
            r_id;
            r_status = Ok_payload payload;
            r_cache_hit = bool_member "cache_hit" j;
            r_replayed = bool_member "replayed" j;
            r_elapsed_s =
              (match Json.member "elapsed_s" j with
              | Some v -> Option.value (Json.to_float_opt v) ~default:0.
              | None -> 0.);
          }
      | None -> Error "ok response is missing \"payload\"")
    | Some (Json.Bool false) ->
      let reject =
        match Json.member "error" j with
        | Some (Json.Str s) ->
          Option.value (reject_of_string s) ~default:Internal
        | _ -> Internal
      in
      let diag = Option.value (Json.member "diag" j) ~default:Json.Null in
      let msg =
        match Json.member "message" diag with
        | Some (Json.Str m) -> m
        | _ -> reject_to_string reject
      in
      Ok
        {
          r_id;
          r_status = Rejected (reject, msg, diag);
          r_cache_hit = false;
          r_replayed = bool_member "replayed" j;
          r_elapsed_s = 0.;
        }
    | _ -> Error "response is missing a boolean \"ok\"")
  | _ -> Error "response is not a JSON object"
