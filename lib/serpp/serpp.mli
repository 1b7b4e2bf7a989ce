(** Propagation-probability SER estimation (Asadi & Tahoori): the cheap
    second backend.

    ASERTA computes, for every gate, an expected-width table per
    (primary output, sample width) and pays for it with Monte-Carlo
    path probabilities — [O((V+E) * samples * outputs)] plus a
    10k-vector fault simulation. This estimator collapses the per-gate
    state to a single {e propagation profile} over the sample-width
    grid: [profile.(i).(k)] is the expected glitch width reaching the
    latch boundary, summed over every reachable output, when a glitch
    of the [k]-th sample width appears at the output of gate [i]. One
    reverse-topological pass computes all profiles in
    [O((V+E) * samples)] with the analytic side-input sensitizations —
    no vectors, no per-output rows — which is what makes it cheap
    enough to rank optimizer candidates (see [Sertopt.Optimizer]
    tiered evaluation).

    The recurrence mirrors ASERTA's WS construction with the
    per-output split removed: a primary-output gate latches its own
    glitch (optionally derated by the latching window), an interior
    gate sums [S_is * profile_s(attenuate(w, delay_s))] over its
    unique successors [s]. Successor contributions are accumulated in
    successor-{e name} order, so the estimate does not depend on gate
    declaration order beyond float-rounding noise in the shared STA
    pass. Under reconvergent fan-out the sum counts a path family more
    than once (an upper-bound tendency ASERTA's normalized Eq-2 split
    avoids); profiles saturate at [profile_cap] so the estimate keeps
    the documented bound below even on pathologically reconvergent
    netlists.

    The per-gate estimate is [Z_i * profile_i(w_i)] with [w_i] the
    probability-blended generated glitch width from the same cell
    library lookups ASERTA uses — so cross-validation ([lib/repro]
    Xval) compares like against like. *)

type config = {
  charge : float;          (** deposited charge, fC *)
  n_samples : int;         (** sample-width grid size, >= 2 *)
  max_sample_width : float;(** widest sample, ps *)
  latch_window : float option;
      (** latching-window derating at the flip-flop boundary: a glitch
          arriving at a primary output latches at most this width (ps).
          [None] latches the full arriving width, matching ASERTA's
          boundary convention. *)
  pi_probs : float array option;
      (** per-input signal probabilities (default 0.5 everywhere) *)
  env : Ser_sta.Timing.env;
}

val default_config : config

type context = {
  probs : float array;         (** signal probabilities, by node id *)
  grid : float array;          (** the sample-width grid, ps *)
  is_po : bool array;          (** [true] at the primary-output gates *)
  succs : int array array;
      (** per non-input, non-output gate: its unique successors whose
          sensitization to it is > 0, in successor-name order; [[||]]
          elsewhere *)
  sens : float array array;    (** the matching sensitizations *)
  profile_cap : float;         (** saturation value of any profile entry *)
  latch_row : float array;
      (** the profile of every primary-output gate (the grid derated by
          the latching window); shared, never mutated *)
}
(** The assignment-independent part of a pass: it depends only on the
    config and the circuit, so one context serves every pass and every
    incremental update ({!Incr_serpp}) over the same circuit. *)

type t = {
  config : config;
  circuit : Ser_netlist.Circuit.t;
  timing : Ser_sta.Timing.t; (** the STA pass the profiles read *)
  profiles : float array array;
      (** [profiles.(id).(k)]: expected latched width over all outputs
          for a glitch of width [context.grid.(k)] at gate [id]; [[||]]
          for primary inputs *)
  areas : float array;       (** per-gate cell area Z_i (0 at PIs) *)
  gen_width : float array;   (** blended generated glitch width w_i, ps *)
  propagated : float array;  (** profile_i(w_i), ps *)
  estimate : float array;    (** per-gate estimate Z_i * propagated_i *)
  total : float;             (** sum of the per-gate estimates *)
  context : context;
      (** the pass context: the grid, signal probabilities and
          [profile_cap] this pass used *)
}

val sample_widths : config -> float array
(** The geometric sample grid (same construction as ASERTA's). Raises
    [Invalid_argument] when [n_samples < 2]. *)

val gate_bound : t -> int -> float
(** Documented upper bound of [estimate.(id)]: the gate's area times
    [context.profile_cap] ([n_outputs * min max_sample_width
    latch_window]). 0 for primary inputs. *)

val context : config -> Ser_netlist.Circuit.t -> context
(** Build the context: signal probabilities, and the successors and
    sensitizations of every gate. Raises [Invalid_argument] when
    [n_samples < 2]. *)

(** {1 Kernels}

    The per-gate pieces {!run} is made of, shared with the incremental
    handle {!Incr_serpp} so that a from-scratch pass and an update run
    the same float operations in the same order. *)

val profile_row :
  context ->
  brackets:(int array * float array) array ->
  profiles:float array array ->
  int ->
  float array
(** The propagation profile of one non-input, non-output gate: the sum
    over its live successors [s] of [sens * profile_s(attenuate(w,
    delay_s))], saturated at [cap]. [brackets.(s)] must be
    {!Aserta.Analysis.ws_brackets} of the grid through [s]'s delay and
    [profiles.(s)] its profile; nothing else is read. *)

val gen_width :
  context ->
  Ser_cell.Library.t ->
  charge:float ->
  Ser_device.Cell_params.t ->
  load:float ->
  int ->
  float
(** The probability-blended generated glitch width of a gate with the
    given cell driving [load]. *)

val gate_estimate :
  context -> profile:float array -> gen_width:float -> area:float ->
  float * float
(** [(profile(gen_width), area * profile(gen_width))]: the propagated
    width and the per-gate estimate. *)

val run :
  ?config:config -> Ser_cell.Library.t -> Ser_sta.Assignment.t -> t
(** One full estimation pass: {!context}, one STA, then the kernels
    over every gate. Not validated — prefer {!run_checked} at API
    boundaries. *)

val run_checked :
  ?config:config ->
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  (t, Ser_util.Diag.t) result
(** {!run} under a [Diag] guard: rejects a malformed config up front,
    clamps sub-epsilon negative estimates, and turns any non-finite
    per-gate or total estimate into a structured error naming the
    gate. *)
