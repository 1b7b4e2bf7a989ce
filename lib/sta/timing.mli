(** Static timing analysis over a cell assignment: load and slew
    propagation, arrival/required times, slack, and total energy — the
    T and E terms of the paper's cost function. *)

type t = {
  loads : float array;      (** capacitive load driven by each node, fF *)
  input_ramp : float array; (** worst input slew seen by each gate, ps *)
  delays : float array;     (** per-gate propagation delay (0 at PIs), ps *)
  ramps : float array;      (** output slew of each node, ps *)
  arrival : float array;    (** latest arrival time at each node output, ps *)
  required : float array;   (** required time against the critical delay, ps *)
  slack : float array;
  critical_delay : float;   (** max arrival over primary outputs, ps *)
}

type env = {
  po_cap : float;  (** latch load at each primary output, fF *)
  pi_ramp : float; (** slew of signals entering from primary inputs, ps *)
}

val default_env : env
(** 1.0 fF, 20 ps. *)

val analyze :
  ?env:env -> Ser_cell.Library.t -> Assignment.t -> t
(** One forward + one backward pass; O(V + E). *)

val critical_path : Assignment.t -> t -> int array
(** Node ids of one critical path, PI first, PO last. *)

(** {1 Kernels}

    The pieces {!analyze} is made of, shared with the incremental
    handle {!Incr_sta} so that a from-scratch and an incremental
    analysis run the same float operations in the same order. *)

val po_mask : Ser_netlist.Circuit.t -> bool array
(** [true] at every primary-output node. *)

val net_load :
  env:env ->
  Ser_cell.Library.t ->
  is_po:bool array ->
  cell:(int -> Ser_device.Cell_params.t) ->
  Ser_netlist.Circuit.node ->
  float
(** Load on the node's output net: its readers' input-pin capacitances
    in [fanout] order, plus [env.po_cap] if it is a primary output. *)

val eval_gate :
  env:env ->
  Ser_cell.Library.timing_model ->
  Ser_netlist.Circuit.node ->
  loads:float array ->
  input_ramp:float array ->
  delays:float array ->
  ramps:float array ->
  arrival:float array ->
  unit
(** The per-gate STA body: worst fan-in ramp and arrival, then one
    fused delay-and-ramp evaluation of the gate's cell
    ({!Ser_cell.Library.eval_timing}, i.e.
    {!Ser_cell.Library.delay_and_ramp}) at the node's load; writes the
    gate's [input_ramp], [delays], [ramps] and [arrival] entries. *)

val critical_of : Ser_netlist.Circuit.t -> float array -> float
(** Max arrival over the primary outputs (0 if none is positive). *)

val of_arrays :
  Ser_netlist.Circuit.t ->
  loads:float array ->
  input_ramp:float array ->
  delays:float array ->
  ramps:float array ->
  arrival:float array ->
  t
(** Complete a forward pass into a {!t}: critical delay, then required
    times and slacks by the backward sweep. The arrays are not copied. *)

val worst_path : Ser_netlist.Circuit.t -> float array -> int array
(** {!critical_path} from an arrival array alone. *)

val total_energy :
  ?env:env -> ?clock:float -> ?activity:float -> ?timing:t ->
  Ser_cell.Library.t -> Assignment.t -> float
(** Energy per clock cycle, fJ: switching energy times [activity]
    (default 0.2) plus leakage over [clock] (default: 1.2x the critical
    delay). Pass [timing] to reuse an existing analysis. *)
