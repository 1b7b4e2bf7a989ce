(** ASERTA: accurate soft-error tolerance analysis (Section 3 of the
    paper).

    For every gate [i] the tool injects a fixed charge at the gate
    output, looks up the generated glitch width, and propagates it to
    the primary outputs through three masking models:

    - {e logical masking}: path-sensitization probabilities [P_ij]
      estimated by random-vector fault simulation, split over
      successors with the normalised weights [pi_isj] of Eq. 2;
    - {e electrical masking}: the reverse-topological expected-width
      pass over 10 sample glitch widths with linear interpolation
      (Section 3.2), attenuation per Eq. 1;
    - {e latching-window masking}: a glitch's latching probability is
      proportional to its width, so the gate's contribution is
      [U_i = Z_i * sum_j W_ij] (Eq. 3) with [Z_i] the gate area, and
      the circuit unreliability is [U = sum_i U_i] (Eq. 4). *)

type pi_split =
  | Normalized
      (** Eq. 2: [pi_isj = S_is P_ij / sum_k S_ik P_kj], which satisfies
          [sum_s pi_isj P_sj = P_ij] (required by Lemma 1) *)
  | Naive
      (** [pi_isj = S_is P_sj], the split the paper argues against —
          kept as an ablation *)

type masking_backend =
  | Monte_carlo
      (** the paper's choice: random-vector fault simulation
          (10 000 vectors), exact up to sampling noise even under
          reconvergent fan-out *)
  | Analytic_masking
      (** vectorless backward propagation
          ({!Ser_logicsim.Probs.path_probabilities_analytic}); exact on
          fan-out-free circuits, optimistic under reconvergence, but
          instant — useful inside tight optimization loops *)

type config = {
  vectors : int;        (** random vectors for [P_ij] (paper: 10 000) *)
  seed : int;
  charge : float;       (** injected charge, fC (paper's figures: 16) *)
  n_samples : int;      (** sample glitch widths (paper: 10) *)
  max_sample_width : float;
      (** the "very wide" top sample, ps; must exceed twice any gate
          delay for Lemma 1 to hold *)
  split : pi_split;
  masking_backend : masking_backend;
  pi_probs : float array option;
      (** per-input one-probabilities (indexed like [inputs]); [None]
          means the paper's uniform 0.5. Biases both the static signal
          probabilities and the random vectors of the fault
          simulation. *)
  env : Ser_sta.Timing.env; (** output load / input slew context *)
}

val default_config : config
(** 10 000 vectors, seed 42, 16 fC, 10 samples, 800 ps, [Normalized]
    split, [Monte_carlo] masking, uniform 0.5 input statistics, default
    env. The 800 ps top sample is "very wide" for 70 nm-class gate
    delays (tens of ps) while keeping the geometric sample grid dense
    where glitches actually live; widen it for unusually slow
    libraries. *)

type masking = {
  probs : float array;             (** static one-probabilities p_i *)
  path_probs : Ser_logicsim.Probs.path_probs; (** P_ij *)
}
(** The logical-masking data. It depends only on circuit topology and
    input statistics — not on sizing/VDD/Vth — so SERTOPT computes it
    once and re-runs only the electrical pass in its loop. *)

type ws_ctx
(** The assignment-independent part of one gate's WS table: its unique
    successors and the Eq-2 blend weights per (output, successor). *)

type context = {
  grid : float array;  (** the sample glitch-width grid *)
  po_pos : int array;
      (** per node: primary-output position, [-1] for other nodes *)
  ws_ctx : ws_ctx option array;
      (** per node: [Some] exactly on the non-input, non-output gates *)
  levels : int array array;
      (** reverse-topological dependency levels of the non-input gates:
          a gate's WS table reads only tables of lower levels *)
  zero_row : float array;
      (** the all-zero row every WS table aliases for an output it
          cannot reach; never mutated *)
}
(** The assignment-independent context of the electrical pass. It
    depends only on the config, the masking and the circuit, which stay
    fixed while SERTOPT varies the cells, so one context serves every
    pass over the same circuit. *)

type t = {
  config : config;
  circuit : Ser_netlist.Circuit.t;
  masking : masking;
  timing : Ser_sta.Timing.t;
  gen_width : float array;
      (** w_i: expected generated glitch width at each gate output
          (strike polarity weighted by p_i), ps *)
  expected_width : float array array;
      (** [W_ij]: expected width reaching output position j of a glitch
          generated at gate i, ps *)
  unreliability : float array; (** U_i per gate (0 at primary inputs) *)
  total : float;               (** U *)
  samples : float array;       (** the sample glitch-width grid used *)
  tables : float array array array;
      (** [tables.(i).(j)] maps the sample widths to expected widths at
          output [j] for a glitch born at gate [i] (the WS tables of
          Section 3.2); empty at primary inputs. Kept for
          {!expected_width_at}. *)
  context : context;  (** the pass context, reusable for re-runs *)
}

val compute_masking :
  ?prune:bool array -> config -> Ser_netlist.Circuit.t -> masking
(** Signal probabilities (analytic, 0.5 at PIs, as the paper obtains
    from Synopsys DC) and fault-simulated [P_ij], on the
    {!Ser_par.Par} pool with results bit-identical at any width.

    [prune] (node-id-indexed, from {e lib/odc}'s
    [Odc.prune_set]) skips fault injection for ODC-proven-masked
    sites: their exhaustive no-PO-difference witness guarantees the
    simulation would count zero detections, so their [P_ij] rows are
    zero either way and every downstream number is bit-identical to
    the unpruned run — the skip only saves the cone propagation. The
    pruned-site count is recorded in the [aserta.odc_pruned] counter.
    Only the [Monte_carlo] backend consumes it: the analytic
    backend's independence assumption can assign nonzero [P_ij] to a
    genuinely masked site, so pruning there would change (not merely
    accelerate) the estimate, and the mask is deliberately ignored. *)

val run_electrical :
  config -> Ser_cell.Library.t -> Ser_sta.Assignment.t -> masking -> t
(** Electrical + latching pass for a given cell assignment, reusing
    precomputed masking. O((V + E) * samples * outputs). *)

val run :
  ?config:config -> ?prune:bool array ->
  Ser_cell.Library.t -> Ser_sta.Assignment.t -> t
(** [compute_masking] followed by [run_electrical]. [prune] is passed
    through to {!compute_masking}. *)

val run_checked :
  ?config:config ->
  ?prune:bool array ->
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  (t, Ser_util.Diag.t) result
(** {!run} behind validation: rejects a nonsensical [config] (vectors
    < 1, non-finite or non-positive charge, < 2 samples, bad top
    sample) and a numerically poisoned answer (non-finite or negative
    per-gate unreliability) with a located diagnostic instead of an
    exception or silent NaN. Sub-epsilon negative [U_i] from
    interpolation round-off is clamped to 0 and [total] re-summed. *)

val sample_widths : config -> float array
(** The sample glitch-width grid used by the electrical pass
    (geometric, topped by [max_sample_width]). *)

val context : config -> masking -> Ser_netlist.Circuit.t -> context
(** Build the context (sensitizations and blend weights of every gate
    over the lib/par pool; bit-identical for any worker count). *)

val run_electrical_with :
  context ->
  config ->
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  masking ->
  t
(** {!run_electrical} on a context built by {!context} from the same
    config, masking and circuit (e.g. an earlier analysis's
    [context]); bit-identical to {!run_electrical}. *)

val ws_brackets : float array -> delay:float -> int array * float array
(** [ws_brackets grid ~delay]: the Eq-1 attenuation of a sample grid
    (ascending, >= 2 entries) through one gate delay: per sample, the
    interpolation bracket of the attenuated width on [grid] ([-1] when
    fully attenuated) and its fraction. A pure function of the delay
    and the grid; one [lerp] over a bracket is bit-identical to
    [Lut.interpolate_1d] at the attenuated width. The one bracket
    kernel, shared by the WS tables here and the propagation profiles
    of [Ser_serpp.Serpp]. *)

val ws_table :
  context ->
  ws_ctx ->
  brackets:(int array * float array) array ->
  tables:float array array array ->
  float array array
(** The WS expected-width table of one non-input, non-output gate
    (Section 3.2, step (iii)): an [outputs * samples] matrix giving the
    expected width reaching each primary output for a glitch of each
    sample width born at the gate. [brackets.(s)] must be
    {!ws_brackets} of gate [s]'s delay and [tables.(s)] its table, for
    every successor [s]; nothing else is read. This is the one WS-table
    kernel: {!run_electrical} calls it level by level and the
    incremental engine ([Ser_incr.Incr]) on each stale gate, so equal
    inputs give bit-identical matrices. *)

val gate_unreliability :
  context ->
  masking ->
  table:float array array ->
  w_low:float ->
  w_high:float ->
  area:float ->
  int ->
  float * float array * float
(** Steps (i)/(iv) and Eqs 3-4 for one non-input gate: blend the two
    generated glitch widths ([w_low]/[w_high], strike with output
    low/high) with the gate's one-probability, interpolate the gate's
    WS [table] at the blended width for every output, and weight by
    [area]. Returns [(w_i, W_ij row, U_i)]. The interpolation bracket
    of [w_i] is found once and each output costs one [lerp],
    bit-identical to [Lut.interpolate_1d] per output. This is the one
    per-gate unreliability kernel, shared by {!run_electrical} and the
    incremental engine. The electrical LUT lookups that produce
    [w_low]/[w_high] stay with the caller so the incremental engine can
    memoise them. *)

val successor_weight :
  t -> gate:int -> succ:int -> po:int -> float
(** The Eq. 2 weight [pi_isj] actually used in the pass (exposed for
    tests of the normalisation property
    [sum_s pi_isj * P_sj = P_ij]). *)

val expected_width_at : t -> gate:int -> po:int -> width:float -> float
(** Interpolate the gate's expected-output-width table at an arbitrary
    generated glitch width (clamped to the sample grid). This is the
    query that makes charge-spectrum analyses ({!Ser_rate}) possible
    without re-running the electrical pass: the width response to a
    strike of any energy is already tabulated. For a primary-output
    gate at its own position this is the identity. *)
