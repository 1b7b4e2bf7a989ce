(** SERTOPT's top level (Section 4): starting from a speed-optimized
    baseline, vary the gate delay assignment inside the nullspace of
    the path-topology matrix T — so the constrained path delays are
    preserved — re-match each candidate assignment to the discrete
    library, and keep the assignment minimising the Eq. 5 cost.

    The delay-assignment search is a direction search (plus optional
    simulated annealing) over delta vectors projected onto
    [null(T)]; the projection is computed with the small [K x K]
    system of {!Ser_linalg.Matrix.project_onto_nullspace}, never an
    explicit basis. The logical-masking data of ASERTA is computed
    once and reused by every cost evaluation. *)

type eval_mode =
  | Full_recompute
      (** every candidate is measured with a from-scratch
          [Timing.analyze] + electrical pass (the pre-incremental
          behaviour; kept for cross-checks and benchmarking) *)
  | Incremental
      (** candidates are evaluated through a {!Ser_incr.Incr} engine:
          only the fanout/fanin cones a cell change reaches are
          re-analysed, and each parallel menu entry probes a
          copy-on-write fork of the incumbent instead of a full
          assignment copy + analysis. Bit-identical results to
          [Full_recompute] — same final assignment, metrics, cost trace
          and eval count. Falls back to full recompute under the
          charge-spectrum objective, which is not incrementalised. *)

type tier =
  | Exact
      (** every greedy-menu candidate is measured exactly (default) *)
  | Serpp_prefilter of int
      (** rank each greedy menu with the single-pass
          propagation-probability estimate ({!Ser_serpp.Serpp}: one STA
          + one profile pass, no vectors, no budget charge) and give
          only the top-k candidates to the exact engine. The accept
          decision still compares exact costs only, so tiering can skip
          an improvement the estimate misranks but never accepts one on
          estimated cost; the exact evaluations avoided are counted in
          the [sertopt.exact_evals_saved] metric and the rankings in
          [sertopt.tier_rank_evals]. Values below 1 behave as 1. *)

type config = {
  aserta : Aserta.Analysis.config;
  objective : Cost.objective;
      (** what the U term of Eq. 5 measures: fixed-charge unreliability
          (the paper) or a charge-spectrum FIT (extension). With the
          spectrum objective the latching clock is frozen at 1.2x the
          baseline critical delay for all candidates. *)
  eval_mode : eval_mode;  (** default {!Incremental} *)
  tier : tier;  (** greedy-menu evaluation economy, default {!Exact} *)
  weights : Cost.weights;
  delay_slack : float;   (** tolerated fractional delay increase *)
  k_paths : int;         (** rows of the topology matrix *)
  n_soft_directions : int;
      (** search directions targeting the highest-U_i gates *)
  n_random_directions : int;
  step : float;          (** initial delay perturbation, ps *)
  max_evals : int;       (** cost-evaluation budget for the search *)
  seed : int;
  matching : Matching.options;
  annealing_steps : int; (** extra SA refinement steps; 0 disables *)
  greedy_passes : int;
      (** discrete per-gate refinement sweeps after the delay-assignment
          search (an extension over the paper; set 0 for the pure
          nullspace method) *)
  greedy_gates : int; (** gates (softest first) visited per sweep *)
  replay_guard : int;
      (** 0 disables. Otherwise: after the search, replay this many
          random vectors through the independent vector-replay
          estimator ({!Aserta.Measured}) for the baseline, the pure
          delay-assignment result and the greedy result, and return the
          candidate with the lowest replayed unreliability. Guards
          against the optimizer overfitting the independence
          approximations of Eq. 2 on large reconvergent circuits (the
          probabilistic U can improve while actual-vector behaviour
          worsens). *)
  odc_obs : float array option;
      (** node-id-indexed observability upper bounds from an ODC report
          ([Ser_odc.Odc.obs_array]; must match the circuit's node
          count). When present, a downsizing stage runs after the
          greedy refinement: gates with [obs <= odc_threshold]
          contribute (near-)zero unreliability whatever their drive
          strength, so their smaller variants are proposed
          (lowest-observability gates first) and measured with the
          exact engine. The report seeds moves only — acceptance is on
          the exact Eq. 5 cost, so a wrong estimate can waste
          evaluations but never degrade the result. Proposed and
          accepted moves are counted in [sertopt.odc_moves] /
          [sertopt.odc_accepts]. *)
  odc_threshold : float;
      (** observability cutoff for the ODC-seeded stage (default
          0.05) *)
}

val default_config : config

type result = {
  baseline : Ser_sta.Assignment.t;
  optimized : Ser_sta.Assignment.t;
  guard_choice : string option;
      (** with [replay_guard > 0]: which candidate the replay gate chose
          ("greedy", "search" or "baseline"); [None] when disabled *)
  baseline_metrics : Cost.metrics;
  optimized_metrics : Cost.metrics;
  baseline_analysis : Aserta.Analysis.t;
  optimized_analysis : Aserta.Analysis.t;
  masking : Aserta.Analysis.masking;
  cost_trace : float list; (** improving cost values, oldest first *)
  evals : int;
  degraded : bool;
      (** the run was cut short by an exhausted {!Ser_util.Budget}.
          [optimized] is still a valid, timing-feasible assignment —
          the best incumbent seen, falling back to [baseline] when not
          even one search evaluation fit the budget. *)
}

val unreliability_reduction : result -> float
(** [1 - U_opt / U_base], the paper's "Decrease in Unreliability". *)

type knob_summary = {
  changed_gates : int;
  upsized : int;
  downsized : int;
  longer_channel : int;
  shorter_channel : int;
  vdd_raised : int;
  vdd_lowered : int;
  vth_raised : int;
  vth_lowered : int;
  vdds_used : float list; (** distinct supplies in the optimized circuit *)
  vths_used : float list;
}

val knob_summary : result -> knob_summary
(** How the optimizer actually moved the four knobs — the "VDDs used" /
    "Vths used" columns of Table 1 plus a change breakdown. *)

val pp_knob_summary : Format.formatter -> knob_summary -> unit

val sample_menu : cap:int -> 'a list -> 'a list
(** Deterministic exact cap on a candidate menu: the full list when it
    has at most [cap] elements, otherwise exactly [cap] evenly spaced
    elements (indices [floor (i * len / cap)]) in the original order.
    Raises [Invalid_argument] on [cap <= 0]. *)

val size_for_speed :
  ?env:Ser_sta.Timing.env ->
  ?max_size:float ->
  Ser_cell.Library.t ->
  Ser_netlist.Circuit.t ->
  Ser_sta.Assignment.t
(** Greedy critical-path upsizing at the nominal corner — the stand-in
    for the paper's Design-Compiler speed optimization that produces
    the baseline circuits. Up to 60 rounds; each round walks the
    current critical path PI to PO and tries the next size up on every
    gate, keeping a trial iff the critical delay drops by more than
    1e-9 ps.

    Each trial is one cone propagation on a {!Ser_sta.Incr_sta} handle
    followed by a commit or revert, so only one full STA runs. The
    result is bit-identical to re-running [Timing.analyze] after every
    trial (the loop it replaced, kept as the oracle in the tests): the
    same cell on every gate, hence the same critical delay to the bit.
    Traced as span [sertopt.size_for_speed]; counters [sizing.trials]
    (trial upsizes) and [sizing.gate_evals] (per-gate STA evaluations
    by the trials' propagations). *)

val optimize :
  ?config:config ->
  ?masking:Aserta.Analysis.masking ->
  ?budget:Ser_util.Budget.t ->
  ?initial:Ser_sta.Assignment.t ->
  Ser_cell.Library.t ->
  Ser_sta.Assignment.t ->
  result
(** Run SERTOPT on a baseline assignment. Pass [masking] to reuse
    already-computed logical-masking data (it depends only on the
    circuit and the vector count/seed).

    [budget] bounds the expensive cost evaluations (count and/or wall
    clock); when it runs out the search stops where it is and the
    result is flagged {!result.degraded} — never an exception, never a
    timing-infeasible assignment. [initial] seeds the search with a
    checkpointed incumbent (see {!Checkpoint}): it is measured once and
    adopted if it beats the direction-search result. Raises
    [Invalid_argument] if [initial] belongs to a different circuit. *)
