(** Response envelopes and the serve protocol's typed rejection
    vocabulary.

    Every reply the daemon writes is one of two shapes:

    {v
    {"ok":true, "id":..., "cache_hit":b, "replayed":b,
     "elapsed_s":n, "payload":{...}}
    {"ok":false, "id":..., "error":"overloaded", "diag":{...}}
    v}

    Load shedding, deadline expiry, worker crashes and shutdown are
    protocol outcomes, not exceptions — a client can switch on
    {!reject} without string-matching diagnostics. *)

type reject =
  | Bad_request  (** unparseable or invalid request (not retryable) *)
  | Overloaded  (** admission queue full — deterministic load shedding *)
  | Deadline_exceeded  (** the request's deadline expired *)
  | Worker_failed
      (** isolated evaluation crashed / hung / was killed; the daemon
          itself is fine *)
  | Shutting_down  (** daemon is draining; retry against a new instance *)
  | Internal  (** daemon-side bug or resource failure *)

val reject_to_string : reject -> string
val reject_of_string : string -> reject option

val retryable : reject -> bool
(** Whether an identical request may succeed later against the same or
    a restarted daemon ([Overloaded], [Worker_failed], [Shutting_down],
    [Internal] — not [Bad_request] / [Deadline_exceeded]). *)

val ok :
  ?cache_hit:bool ->
  ?replayed:bool ->
  id:string option ->
  elapsed_s:float ->
  Ser_util.Json.t ->
  Ser_util.Json.t
(** Success envelope around a result payload. [cache_hit]: served from
    the content-addressed cache; [replayed]: idempotent replay of a
    previously computed response for the same request id. *)

val error :
  id:string option -> reject -> Ser_util.Diag.t -> Ser_util.Json.t

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
      (** kind, diagnostic message, full diag JSON *)

val response_of_json :
  Ser_util.Json.t -> (response, string) result
(** Total decoder for the client side; [Error] describes the malformed
    envelope. An unknown ["error"] string maps to {!Internal} rather
    than failing, so old clients survive new rejection kinds. A
    provenance flag that is absent reads as [false] and an unknown one
    is ignored, so old and new envelopes decode on either side (older
    daemons also sent a ["warm"] flag). *)
