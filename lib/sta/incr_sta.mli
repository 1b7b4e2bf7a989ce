(** Incremental static timing: one {!Timing.analyze} kept up to date
    under cell changes, with an undo log.

    The handle holds the loads, input ramps, delays, output ramps and
    arrivals of every node. {!try_cells} writes new cells, recomputes
    the loads of their fan-in nets, then re-evaluates the fanout cone
    in ascending (topological) id order with {!Timing.eval_gate} — the
    same kernel {!Timing.analyze} runs — and stops at a node whose
    output ramp and arrival are bit-for-bit unchanged
    ({!Ser_util.Floatx.same_bits}). Every overwritten entry is logged
    once per trial: {!revert} restores the state before the trial,
    {!commit} keeps it. After any sequence of trials, reverts and
    commits, the arrays and the critical delay are bit-identical to
    [Timing.analyze] of the handle's current assignment.

    Used by the baseline sizing loop (try, read the critical delay,
    revert or commit) and by the layered engines [Ser_incr.Incr]
    (ASERTA tables) and [Ser_serpp.Incr_serpp] (serpp profiles), which
    propagate with {!apply_cells} and read back what the last
    propagation changed. Not thread-safe; {!fork} gives an independent
    copy. *)

type t

val create : ?env:Timing.env -> Ser_cell.Library.t -> Assignment.t -> t
(** One full {!Timing.analyze}; the assignment is copied. *)

val of_timing :
  ?env:Timing.env -> Ser_cell.Library.t -> Assignment.t -> Timing.t -> t
(** Adopt an analysis already in hand; [timing] must be
    [Timing.analyze ?env lib asg]. Arrays and assignment are copied. *)

val fork : t -> t
(** Independent O(nodes) copy. Raises [Invalid_argument] while a trial
    is open. *)

val try_cells : t -> (int * Ser_device.Cell_params.t) list -> unit
(** Apply a batch of gate -> cell writes in list order and propagate
    once over the union of their cones. A write that would not change
    the gate's current cell is skipped. The writes join the open trial
    (one is opened if none is). Raises [Invalid_argument] on a primary
    input, a bad id or a cell of the wrong kind or fan-in, before
    writing anything. *)

val try_cell : t -> int -> Ser_device.Cell_params.t -> unit
(** [try_cells t [(g, cell)]]. *)

val apply_cells : t -> (int * Ser_device.Cell_params.t) list -> unit
(** [try_cells] then {!commit}, but without recording the undo log:
    the same propagation and state, none of the log's copying or
    allocation. For layered engines, which never revert. Raises
    [Invalid_argument] while a trial is open. *)

val commit : t -> unit
(** Keep the open trial's writes and close it. *)

val revert : t -> unit
(** Undo every write of the open trial and close it. *)

val cell : t -> int -> Ser_device.Cell_params.t
val assignment : t -> Assignment.t
(** A fresh copy of the current assignment. *)

val critical_delay : t -> float

val critical_path : t -> int array
(** {!Timing.critical_path} over the current arrivals. *)

val load : t -> int -> float
val delay : t -> int -> float

val load_changed : t -> int -> bool
(** The node's load changed bits in the latest {!try_cells}. Cleared by
    the next {!try_cells} and by {!revert}. *)

val delay_changed : t -> int -> bool
(** Likewise for the gate's delay. *)

val changed_span : t -> int * int
(** [(lo, hi)]: every node with {!load_changed} or {!delay_changed}
    has an id in [lo..hi], so a layered engine scans that span rather
    than the whole circuit. Empty ([lo > hi]) when nothing changed. *)

val gate_evals : t -> int
(** Kernel evaluations by this handle's propagations (not counting the
    analysis it was created from). *)

val cutoffs : t -> int
(** Of which: outputs bit-unchanged, cone cut there. *)

val timing : t -> Timing.t
(** The full timing record (required times and slacks by the backward
    sweep of {!Timing.of_arrays}); arrays are copies. *)
