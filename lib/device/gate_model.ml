module Gate = Ser_netlist.Gate

type stage = {
  n_stack : int;
  p_stack : int;
  n_fingers : int;
  p_fingers : int;
  load_pins : float;
}

let inverter_stage = { n_stack = 1; p_stack = 1; n_fingers = 1; p_fingers = 1; load_pins = 1. }

let stages (p : Cell_params.t) =
  let n = p.fanin in
  match p.kind with
  | Gate.Input -> []
  | Gate.Not -> [ inverter_stage ]
  | Gate.Buf -> [ inverter_stage; inverter_stage ]
  | Gate.Nand ->
    [ { n_stack = n; p_stack = 1; n_fingers = 1; p_fingers = n; load_pins = 1. } ]
  | Gate.Nor ->
    [ { n_stack = 1; p_stack = n; n_fingers = n; p_fingers = 1; load_pins = 1. } ]
  | Gate.And ->
    [ { n_stack = n; p_stack = 1; n_fingers = 1; p_fingers = n; load_pins = 1. };
      inverter_stage ]
  | Gate.Or ->
    [ { n_stack = 1; p_stack = n; n_fingers = n; p_fingers = 1; load_pins = 1. };
      inverter_stage ]
  | Gate.Xor | Gate.Xnor ->
    (* modelled as two NAND-like stages with doubled input loading;
       the transient simulator uses the exact 4-NAND expansion instead *)
    [ { n_stack = 2; p_stack = 1; n_fingers = 2; p_fingers = 2; load_pins = 2. };
      { n_stack = 2; p_stack = 1; n_fingers = 2; p_fingers = 2; load_pins = 1. } ]

let wn (p : Cell_params.t) = p.size *. Mosfet.w_min
let wp (p : Cell_params.t) = p.size *. Mosfet.w_min *. Mosfet.pmos_width_ratio

(* Transistors in series are widened to partially compensate the stack,
   a standard cell-design practice; we use sqrt compensation. *)
let stack_factor stack = sqrt (float_of_int stack)

let first_stage p =
  match stages p with
  | s :: _ -> s
  | [] -> invalid_arg "Gate_model: Input has no stages"

let last_stage p =
  match List.rev (stages p) with
  | s :: _ -> s
  | [] -> invalid_arg "Gate_model: Input has no stages"

let input_cap (p : Cell_params.t) =
  let s = first_stage p in
  let gate_cap w = (Mosfet.cox_area *. w *. p.length) +. (Mosfet.c_overlap *. w) in
  let wn = wn p *. stack_factor s.n_stack and wp = wp p *. stack_factor s.p_stack in
  (gate_cap wn +. gate_cap wp) *. s.load_pins

let output_cap (p : Cell_params.t) =
  let s = last_stage p in
  (* every finger contributes junction area at the output; series stacks
     contribute one device's junction *)
  let wn_j = wn p *. stack_factor s.n_stack *. float_of_int s.n_fingers in
  let wp_j = wp p *. stack_factor s.p_stack *. float_of_int s.p_fingers in
  (Mosfet.c_junction *. (wn_j +. wp_j) *. 0.7) +. 0.15 (* local wire *)

let area (p : Cell_params.t) =
  let per_stage s =
    let nw = float_of_int (s.n_stack * s.n_fingers) *. stack_factor s.n_stack in
    let pw =
      float_of_int (s.p_stack * s.p_fingers)
      *. stack_factor s.p_stack *. Mosfet.pmos_width_ratio
    in
    (nw +. pw) /. (1. +. Mosfet.pmos_width_ratio)
  in
  let widths = List.fold_left (fun acc s -> acc +. per_stage s) 0. (stages p) in
  p.size *. (p.length /. Mosfet.l_min) *. widths

let leakage_power (p : Cell_params.t) =
  let nm = Mosfet.nmos ~vth:p.vth and pm = Mosfet.pmos ~vth:p.vth in
  let per_stage s =
    (* one network is off; average both output states *)
    let wl_n =
      wn p *. stack_factor s.n_stack /. p.length /. float_of_int s.n_stack
    in
    let wl_p =
      wp p *. stack_factor s.p_stack /. p.length /. float_of_int s.p_stack
    in
    let il_n = Mosfet.leakage_current nm ~w_over_l:wl_n ~vdd:p.vdd in
    let il_p = Mosfet.leakage_current pm ~w_over_l:wl_p ~vdd:p.vdd in
    0.5 *. (il_n +. il_p) *. p.vdd
  in
  List.fold_left (fun acc s -> acc +. per_stage s) 0. (stages p)

let internal_cap p =
  match stages p with
  | [ _ ] -> 0.
  | _ :: _ :: _ -> input_cap { p with kind = Gate.Not; fanin = 1 } +. 0.1
  | [] -> 0.

let switching_energy (p : Cell_params.t) ~cload =
  (cload +. output_cap p +. internal_cap p) *. p.vdd *. p.vdd

type direction = Pull_up | Pull_down

(* Worst-case (single sensitized input) drive of a stage: a series stack
   divides the strength, fingers do not help when only one input
   switches. *)
let stage_drive (p : Cell_params.t) s direction =
  match direction with
  | Pull_down ->
    let m = Mosfet.nmos ~vth:p.vth in
    let w = wn p *. stack_factor s.n_stack in
    let wl = w /. p.length /. float_of_int s.n_stack in
    Mosfet.saturation_current m ~w_over_l:wl ~vgs:p.vdd
  | Pull_up ->
    let m = Mosfet.pmos ~vth:p.vth in
    let w = wp p *. stack_factor s.p_stack in
    let wl = w /. p.length /. float_of_int s.p_stack in
    Mosfet.saturation_current m ~w_over_l:wl ~vgs:p.vdd

let drive_current p direction = stage_drive p (last_stage p) direction

let drive_at (p : Cell_params.t) direction ~vout =
  let s = last_stage p in
  match direction with
  | Pull_down ->
    let m = Mosfet.nmos ~vth:p.vth in
    let w = wn p *. stack_factor s.n_stack in
    let wl = w /. p.length /. float_of_int s.n_stack in
    Mosfet.drain_current m ~w_over_l:wl ~vgs:p.vdd ~vds:vout
  | Pull_up ->
    let m = Mosfet.pmos ~vth:p.vth in
    let w = wp p *. stack_factor s.p_stack in
    let wl = w /. p.length /. float_of_int s.p_stack in
    Mosfet.drain_current m ~w_over_l:wl ~vgs:p.vdd ~vds:(p.vdd -. vout)

let ramp_sensitivity = 0.25
let intrinsic_delay_per_stage = 0.6 (* ps: junction/miller effects *)

(* Half-swing time of a stage driving [c] fF at constant worst drive,
   and the stage's delay and output ramp from it: the one statement of
   the stage arithmetic, shared by the direct walk and the model. *)
let half_swing ~c ~vdd i =
  if i <= 0. then Float.max_float else c *. vdd /. 2. /. i

let stage_delay ~t ~ramp =
  intrinsic_delay_per_stage +. t +. (ramp_sensitivity *. ramp)

let stage_ramp t = 1.6 *. t

(* Walks the stages computing each drive on the way: the cheapest route
   for a one-off query (cell matching probes many cells once each). *)
let timing (p : Cell_params.t) ~input_ramp ~cload =
  let stage_list = stages p in
  let last = List.length stage_list - 1 in
  let rec loop acc_delay ramp idx = function
    | [] -> (acc_delay, ramp)
    | s :: rest ->
      let c = if idx = last then cload +. output_cap p else internal_cap p +. 0.1 in
      let t =
        Float.max
          (half_swing ~c ~vdd:p.vdd (stage_drive p s Pull_down))
          (half_swing ~c ~vdd:p.vdd (stage_drive p s Pull_up))
      in
      loop (acc_delay +. stage_delay ~t ~ramp) (stage_ramp t) (idx + 1) rest
  in
  loop 0. input_ramp 0 stage_list

type timing_model = {
  vdd : float;
  i_down : float array;
  i_up : float array;
  c_fixed : float array;
}

let timing_model (p : Cell_params.t) =
  let st = Array.of_list (stages p) in
  let last = Array.length st - 1 in
  {
    vdd = p.vdd;
    i_down = Array.map (fun s -> stage_drive p s Pull_down) st;
    i_up = Array.map (fun s -> stage_drive p s Pull_up) st;
    c_fixed =
      Array.mapi
        (fun k _ -> if k = last then output_cap p else internal_cap p +. 0.1)
        st;
  }

(* [timing] with the cell-only terms read from the model: the cheapest
   route when one cell is evaluated at many operating points. *)
let eval_timing m ~input_ramp ~cload =
  let last = Array.length m.i_down - 1 in
  let acc_delay = ref 0. and ramp = ref input_ramp in
  for k = 0 to last do
    let c = if k = last then cload +. m.c_fixed.(k) else m.c_fixed.(k) in
    let t =
      Float.max
        (half_swing ~c ~vdd:m.vdd m.i_down.(k))
        (half_swing ~c ~vdd:m.vdd m.i_up.(k))
    in
    acc_delay := !acc_delay +. stage_delay ~t ~ramp:!ramp;
    ramp := stage_ramp t
  done;
  (!acc_delay, !ramp)

let delay p ~input_ramp ~cload = fst (timing p ~input_ramp ~cload)
let output_ramp p ~input_ramp ~cload = snd (timing p ~input_ramp ~cload)

let collected_charge_tau = (2., 15.)

let restore_drive p ~output_low =
  (* a low output is held low by the on pull-down; a high output by the
     on pull-up *)
  drive_current p (if output_low then Pull_down else Pull_up)

let critical_charge (p : Cell_params.t) ~node_cap ~output_low =
  let _, tau_f = collected_charge_tau in
  let i = restore_drive p ~output_low in
  (node_cap *. p.vdd /. 2.) +. (i *. tau_f)

(* Heuristic closed form: charge up to [qc] is absorbed before the node
   crosses VDD/2; the excess keeps the node beyond VDD/2 for a time set
   by the injection tail and the recovery slope. Smooth and monotone in
   the charge; the transient engine is the accurate reference. *)
let generated_glitch_width (p : Cell_params.t) ~node_cap ~charge ~output_low =
  let _, tau_f = collected_charge_tau in
  let i = restore_drive p ~output_low in
  if i <= 0. then Float.max_float
  else begin
    let qc = critical_charge p ~node_cap ~output_low in
    let excess = charge -. qc in
    if excess <= 0. then 0.
    else begin
      let it = i *. tau_f in
      let recovery = node_cap *. p.vdd /. 2. /. i in
      (excess /. (excess +. it) *. recovery) +. (tau_f *. log (1. +. (excess /. it)))
    end
  end
