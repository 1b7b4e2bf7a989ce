(** Incremental propagation-probability estimation: one {!Serpp.run}
    kept up to date under cell changes, for ranking SERTOPT menu
    candidates.

    The handle layers the serpp state on a {!Ser_sta.Incr_sta} handle,
    in the same layers as [Ser_incr.Incr] layers the ASERTA tables.
    Changing the cell of a set of gates ({!set_cell} / {!sync})
    recomputes only what the change can reach:

    - {e loads and forward STA}: the STA handle's fanout cone, with
      bitwise cutoff;
    - {e attenuation brackets}: of the gates whose delay changed
      ({!Aserta.Analysis.ws_brackets}, the bracket kernel ASERTA uses);
    - {e profile rows}: over the fan-in cone of the delay and profile
      changes, in descending (reverse-topological) id order, again with
      bitwise cutoff;
    - {e per-gate estimates}: where the cell, the node load or the
      profile changed; the blended generated width is refreshed only on
      a cell or load change.

    Every recomputation calls the from-scratch kernels
    ({!Serpp.profile_row}, {!Serpp.gen_width}, {!Serpp.gate_estimate})
    on the pass's own {!Serpp.context}, and {!metrics} re-folds in id
    order exactly as {!Serpp.run}, [Timing.total_energy] and
    [Assignment.total_area] do, so every number is bit-identical to a
    full pass over the handle's current assignment. Scans are bounded
    to the id span the change can reach.

    Work is counted in the [serpp.updates], [serpp.profiles_recomputed]
    and [serpp.profiles_cutoff] counters. Not thread-safe; {!fork}
    gives an independent copy that may be updated on another domain
    while its parent is left alone. *)

type t

type metrics = {
  unreliability : float;  (** the serpp total *)
  delay : float;  (** critical delay *)
  energy : float;  (** as [Timing.total_energy] with its defaults *)
  area : float;  (** as [Assignment.total_area] *)
}

val create :
  ?config:Serpp.config -> Ser_cell.Library.t -> Ser_sta.Assignment.t -> t
(** One full {!Serpp.run} adopted into a handle; [asg] is copied, not
    aliased. *)

val fork : t -> t
(** O(nodes) copy-on-write clone: array spines are copied, the
    immutable profile rows and brackets are shared. *)

val set_cell : t -> int -> Ser_device.Cell_params.t -> unit
(** Write one gate's cell and propagate over its cones. Raises
    [Invalid_argument] like [Assignment.set] on a primary input, a bad
    id or a mismatched cell, before writing anything. *)

val sync : t -> Ser_sta.Assignment.t -> unit
(** Diff the handle against an assignment over the same circuit and
    apply the difference as one batch, propagating once over the union
    of its cones. *)

val metrics : t -> metrics

val profile : t -> int -> float array
(** The gate's propagation profile ([[||]] at primary inputs); not to
    be mutated. *)

val estimate : t -> int -> float
(** The gate's estimate (0 at primary inputs). *)
