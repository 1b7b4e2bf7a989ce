(** Probabilities ASERTA's logical-masking model needs:

    - static signal probabilities [p_i] (the paper obtains these from
      Synopsys Design Compiler with 0.5 at the inputs),
    - side-input sensitization [S_is] (all other inputs of gate [s]
      non-controlling),
    - path-sensitization probabilities [P_ij] (at least one sensitized
      path from gate [i] to primary output [j]), estimated by
      bit-parallel fault injection over random vectors, as in the
      paper (10 000 vectors). *)

val signal_probabilities :
  ?pi_prob:float -> ?pi_probs:float array -> Ser_netlist.Circuit.t -> float array
(** Topological propagation under the independence assumption:
    [p(AND) = prod p_k], etc. Exact for fan-out-free circuits.
    [pi_prob] (default 0.5) applies to every input; [pi_probs] gives a
    per-input probability (indexed like [inputs]) and overrides it.
    Indexed by node id. *)

val signal_probabilities_mc :
  ?pi_probs:float array ->
  rng:Ser_rng.Rng.t -> vectors:int -> Ser_netlist.Circuit.t -> float array
(** Monte-Carlo signal probabilities from random simulation. Batches of
    patterns are distributed over the {!Ser_par.Par} pool; every batch
    draws from its own index-keyed RNG stream, so the estimate is
    bit-identical for any worker count. *)

val side_sensitization :
  Ser_netlist.Circuit.t -> probs:float array -> gate:int -> pin:int -> float
(** [S_is] where [s = gate] and the changing input arrives on [pin]:
    the probability that every other input of [gate] holds its
    non-controlling value. 1.0 for XOR/XNOR/BUF/NOT. *)

val sensitization_to_driver :
  Ser_netlist.Circuit.t -> probs:float array -> gate:int -> driver:int -> float
(** [S_is] by driver id: the probability that a change on the output of
    [driver] can pass through [gate]. When [driver] feeds several pins
    of [gate] the strongest (maximum) pin sensitization is used. Raises
    [Not_found] if [driver] is not a fanin of [gate]. *)

type path_probs = {
  vectors : int;             (** vectors actually simulated *)
  po_index : int array;      (** primary-output positions, = 0..n_pos-1 *)
  p : float array array;     (** [p.(id).(pos)] = P_ij *)
}

val path_probabilities :
  ?pi_probs:float array ->
  ?prune:bool array ->
  rng:Ser_rng.Rng.t ->
  vectors:int ->
  Ser_netlist.Circuit.t ->
  path_probs
(** Fault-injection estimate of [P_ij] for every non-input node [i] and
    every primary output [j]: the fraction of random vectors under
    which flipping the output of [i] changes output [j]. Rows of
    primary-input nodes are all zero. A primary-output gate [j] has
    [P_jj = 1].

    [prune.(id) = true] (indexed by node id, length [node_count])
    skips fault injection for node [id] entirely — no cone walk, row
    left all-zero. Sound only for sites holding an exhaustive
    no-PO-difference witness (an ODC [Proven_masked] classification),
    where simulation would count zero detections anyway; surviving
    rows are bit-identical to the unpruned run because each row is
    owned by exactly one gate and patterns are index-keyed per batch.

    The per-gate fault propagation of each batch fans out over the
    shared {!Ser_par.Par} pool at its configured width (inline at
    width 1). The result is bit-identical at every width: each
    gate's counters are owned by exactly one chunk, and batch [b] draws
    its random vectors from the index-keyed stream
    [Ser_rng.Rng.stream base b] (where [base] is split off [rng] once),
    not from a generator shared across workers. *)

val path_probabilities_analytic :
  ?probs:float array -> Ser_netlist.Circuit.t -> path_probs
(** Vectorless estimate of [P_ij] by backward propagation under the
    path-independence assumption:

    {v P_ij = 1 - prod_s (1 - S_is * P_sj) v}

    over the successors [s] of [i]. The paper notes this is how
    sensitization probabilities "can be calculated as in [8]" for
    circuits {e without} reconvergent fan-out — where it is exact —
    while the general problem is NP-complete, which is why ASERTA
    defaults to random-vector fault simulation. Exposed as an
    alternative masking backend and for the accuracy ablation.
    [probs] defaults to {!signal_probabilities}. The [vectors] field of
    the result is 0. *)

val detection_counts_for_vector :
  Ser_netlist.Circuit.t -> bool array -> strike:int -> bool array
(** Single-vector variant: which primary outputs flip when the output
    of [strike] is inverted under the given input vector. Used by the
    measured-unreliability mode and by tests as a brute-force oracle. *)

(** {1 Raw injection kernel}

    Exposed for {!module:Ser_odc}'s observability analysis, which runs
    the same bit-parallel flip propagation but only needs "did any
    primary output change" per pattern, not per-output counts. *)

type fault_scratch
(** Domain-local propagation scratch (faulty words + generation
    stamps). One per worker; reusable across gates and batches. *)

val fresh_scratch : int -> fault_scratch
(** [fresh_scratch n] for a circuit with [n] nodes. *)

val flip_observed_word :
  Ser_netlist.Circuit.t ->
  cone:int array ->
  is_po:int array ->
  good:int array ->
  mask:int ->
  fault_scratch ->
  int ->
  int
(** [flip_observed_word c ~cone ~is_po ~good ~mask ws i] inverts gate
    [i]'s output word, propagates through [cone] (its topologically
    ordered fanout cone, as from {!Ser_netlist.Circuit.fanout_cone}),
    and returns the OR over primary outputs of the masked difference
    words: bit [k] is set iff pattern [k] propagates the flip to at
    least one primary output. [is_po.(id)] is the output position of
    node [id] or [-1]; [good] is the fault-free batch
    ({!Bitsim.batch} values); [mask] covers the live patterns. *)
