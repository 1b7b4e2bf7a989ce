(** Small numeric helpers shared across the library. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] is [x] restricted to the closed interval [lo, hi].
    Requires [lo <= hi]. *)

val lerp : float -> float -> float -> float
(** [lerp a b t] linearly interpolates between [a] and [b]; [t = 0] gives
    [a], [t = 1] gives [b]. [t] is not clamped. *)

val inv_lerp : float -> float -> float -> float
(** [inv_lerp a b x] is the parameter [t] such that [lerp a b t = x].
    Returns [0.] when [a = b]. *)

val same_bits : float -> float -> bool
(** [same_bits a b] implies [a] and [b] have identical bit patterns
    ([0.] and [-0.] differ). [false] on any NaN, so a caller using it as
    an early-cutoff test merely recomputes. Allocation-free. *)

val is_close : ?rtol:float -> ?atol:float -> float -> float -> bool
(** [is_close a b] holds when [|a - b| <= atol + rtol * max |a| |b|].
    Defaults: [rtol = 1e-9], [atol = 1e-12]. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] is [n] evenly spaced samples from [a] to [b]
    inclusive. Requires [n >= 2] (or [n = 1], giving [[|a|]]). *)

val logspace : float -> float -> int -> float array
(** [logspace a b n] is [n] geometrically spaced samples from [a] to [b]
    inclusive. Requires [a > 0.], [b > 0.]. *)

val sum : float array -> float
(** Kahan-compensated sum. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on the empty array (it
    used to return [nan], which propagated silently into reports); use
    {!mean_opt} when emptiness is a legitimate input. *)

val stddev : float array -> float
(** Population standard deviation. Raises [Invalid_argument] on the
    empty array; see {!stddev_opt}. *)

val mean_opt : float array -> float option
(** Total version of {!mean}: [None] on the empty array. *)

val stddev_opt : float array -> float option
(** Total version of {!stddev}: [None] on the empty array. *)

val all_finite : float array -> bool
(** No NaN/Inf entries (true on the empty array). *)

val count_nonfinite : float array -> int
(** Number of NaN/Inf entries. *)

val fold_range : int -> init:'a -> f:('a -> int -> 'a) -> 'a
(** [fold_range n ~init ~f] folds [f] over [0 .. n-1]. *)

val array_min : float array -> float
(** Minimum element. Raises [Invalid_argument] on the empty array. *)

val array_max : float array -> float
(** Maximum element. Raises [Invalid_argument] on the empty array. *)

val binary_search_bracket : float array -> float -> int
(** [binary_search_bracket axis x] returns an index [i] such that
    [axis.(i) <= x <= axis.(i+1)] when possible, clamped to
    [0 .. Array.length axis - 2] otherwise. [axis] must be strictly
    increasing with at least two elements. *)
