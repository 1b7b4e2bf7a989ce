module Gate = Ser_netlist.Gate
module Cell_params = Ser_device.Cell_params
module Gate_model = Ser_device.Gate_model
module Lut = Ser_table.Lut

type backend = Analytic | Transient

type axes = {
  sizes : float list;
  lengths : float list;
  vdds : float list;
  vths : float list;
}

let default_axes =
  {
    sizes = [ 1.; 2.; 4.; 8. ];
    lengths = [ 70.; 100.; 150.; 250.; 300. ];
    vdds = [ 0.8; 1.0; 1.2 ];
    vths = [ 0.1; 0.2; 0.3 ];
  }

let restrict ?sizes ?lengths ?vdds ?vths ax =
  {
    sizes = Option.value ~default:ax.sizes sizes;
    lengths = Option.value ~default:ax.lengths lengths;
    vdds = Option.value ~default:ax.vdds vdds;
    vths = Option.value ~default:ax.vths vths;
  }

module Pmap = Map.Make (struct
  type t = Cell_params.t

  let compare = Cell_params.compare
end)

type tables = {
  mutable timing : Lut.t * Lut.t; (* delay, ramp over (input_ramp, cload) *)
}

type t = {
  backend : backend;
  ax : axes;
  mutable timing_cache : tables Pmap.t;
  mutable glitch_cache : (Lut.t * Lut.t) Pmap.t;
      (* (node_cap, charge) grids for output_low = (true, false) *)
  diags : Ser_util.Diag.Collector.t;
  mutable flagged_points : int;
  mu : Mutex.t;
      (* guards both caches, the collector and [flagged_points]: the
         library is queried concurrently from lib/par worker domains.
         The lock is held across a miss-path characterisation, so a
         cell is characterised exactly once and the tables every domain
         sees are identical. *)
}

let create ?(backend = Analytic) ?(axes = default_axes) () =
  if axes.sizes = [] || axes.lengths = [] || axes.vdds = [] || axes.vths = []
  then invalid_arg "Library.create: empty axis";
  {
    backend;
    ax = axes;
    timing_cache = Pmap.empty;
    glitch_cache = Pmap.empty;
    diags = Ser_util.Diag.Collector.create ();
    flagged_points = 0;
    mu = Mutex.create ();
  }

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let diagnostics t = with_lock t (fun () -> Ser_util.Diag.Collector.list t.diags)
let flagged_points t = with_lock t (fun () -> t.flagged_points)

(* A characterisation point whose transient needed guardrail
   interventions is recorded; a point that is still non-finite falls
   back to the analytic model rather than poisoning the table. *)
let note_flagged t p ~what ~q (health : Ser_spice.Engine.health) =
  t.flagged_points <- t.flagged_points + 1;
  Ser_util.Diag.Collector.add t.diags
    (Ser_util.Diag.make ~severity:Ser_util.Diag.Warning ~subsystem:"cell"
       ~context:
         [
           ("cell", Cell_params.to_string p);
           ("point", q);
           ("retries", string_of_int health.Ser_spice.Engine.retries);
           ("fallbacks", string_of_int health.Ser_spice.Engine.fallbacks);
           ("rejects", string_of_int health.Ser_spice.Engine.rejects);
         ]
       (what ^ " characterisation point needed numerical intervention"))

let backend t = t.backend
let axes t = t.ax

let variants t kind fanin =
  if kind = Gate.Input then invalid_arg "Library.variants: Input";
  List.concat_map
    (fun size ->
      List.concat_map
        (fun length ->
          List.concat_map
            (fun vdd ->
              List.filter_map
                (fun vth ->
                  if vth < vdd then Some (Cell_params.v ~size ~length ~vdd ~vth kind fanin)
                  else None)
                t.ax.vths)
            t.ax.vdds)
        t.ax.lengths)
    t.ax.sizes

let closest target candidates =
  List.fold_left
    (fun best x ->
      match best with
      | None -> Some x
      | Some b -> if Float.abs (x -. target) < Float.abs (b -. target) then Some x else best)
    None candidates
  |> Option.get

let nominal t kind fanin =
  let size = List.fold_left Float.min (List.hd t.ax.sizes) t.ax.sizes in
  let length = List.fold_left Float.min (List.hd t.ax.lengths) t.ax.lengths in
  let vdd = closest 1.0 t.ax.vdds in
  let vth = closest 0.2 (List.filter (fun v -> v < vdd) t.ax.vths) in
  Cell_params.v ~size ~length ~vdd ~vth kind fanin

let input_cap _ p = Gate_model.input_cap p
let output_cap _ p = Gate_model.output_cap p
let area _ p = Gate_model.area p
let leakage_power _ p = Gate_model.leakage_power p
let switching_energy _ p ~cload = Gate_model.switching_energy p ~cload

(* Characterisation grids. Loads span FO1-ish to heavy multi-fanout,
   scaled by drive size so big cells see proportionally big loads. *)
let ramp_axis = [| 2.; 10.; 30.; 80.; 160. |]

let cload_axis (p : Cell_params.t) =
  Array.map (fun m -> m *. Float.max 1. p.size) [| 0.3; 0.8; 2.; 5.; 12.; 30. |]

let charge_axis = [| 2.; 4.; 8.; 16.; 32.; 64. |]

let ncap_axis (p : Cell_params.t) =
  Array.map (fun m -> m *. Float.max 1. p.size) [| 0.3; 0.8; 2.; 5.; 12.; 30. |]

let timing_tables t p =
  with_lock t (fun () ->
      match Pmap.find_opt p t.timing_cache with
      | Some tb -> tb.timing
      | None ->
        let cloads = cload_axis p in
        let axes = [| ramp_axis; cloads |] in
        let nc = Array.length cloads in
        let points =
          Array.init
            (Array.length ramp_axis * nc)
            (fun i -> (ramp_axis.(i / nc), cloads.(i mod nc)))
        in
        (* one transient per grid point, fanned out over the lib/par
           pool; guardrail flags are recorded sequentially in grid order
           afterwards so the collector stays deterministic. The lock is
           held throughout, so a concurrent query for the same cell
           waits for these tables instead of re-measuring them. *)
        let measured =
          Ser_par.Par.parallel_map
            (fun (ramp, cload) ->
              Ser_spice.Char.delay_and_ramp_h p ~cload ~input_ramp:ramp)
            points
        in
        let cache = Hashtbl.create 64 in
        Array.iteri
          (fun i (ramp, cload) ->
            let (d, r), health = measured.(i) in
            if health.Ser_spice.Engine.flagged then
              note_flagged t p ~what:"timing"
                ~q:(Printf.sprintf "ramp=%g cload=%g" ramp cload)
                health;
            let v =
              if Float.is_finite d && Float.is_finite r then (d, r)
              else
                ( Gate_model.delay p ~input_ramp:ramp ~cload,
                  Gate_model.output_ramp p ~input_ramp:ramp ~cload )
            in
            Hashtbl.replace cache (ramp, cload) v)
          points;
        (* Lut.build only probes grid points, all of which are cached *)
        let lookup q =
          match Hashtbl.find_opt cache (q.(0), q.(1)) with
          | Some v -> v
          | None ->
            ( Gate_model.delay p ~input_ramp:q.(0) ~cload:q.(1),
              Gate_model.output_ramp p ~input_ramp:q.(0) ~cload:q.(1) )
        in
        let delay_tbl = Lut.build ~axes ~f:(fun q -> fst (lookup q)) in
        let ramp_tbl = Lut.build ~axes ~f:(fun q -> snd (lookup q)) in
        t.timing_cache <-
          Pmap.add p { timing = (delay_tbl, ramp_tbl) } t.timing_cache;
        (delay_tbl, ramp_tbl))

type timing_model =
  | Closed_form of Gate_model.timing_model
  | Tables of (Lut.t * Lut.t)

let timing_model t p =
  match t.backend with
  | Analytic -> Closed_form (Gate_model.timing_model p)
  | Transient -> Tables (timing_tables t p)

(* One evaluation for both numbers: one stage walk on the analytic
   model, one pair of table reads (behind one lock, in [timing_model])
   on the transient backend. *)
let eval_timing m ~input_ramp ~cload =
  match m with
  | Closed_form g -> Gate_model.eval_timing g ~input_ramp ~cload
  | Tables (d, r) -> (Lut.eval2 d input_ramp cload, Lut.eval2 r input_ramp cload)

let delay_and_ramp t p ~input_ramp ~cload =
  eval_timing (timing_model t p) ~input_ramp ~cload

let delay t p ~input_ramp ~cload =
  match t.backend with
  | Analytic -> Gate_model.delay p ~input_ramp ~cload
  | Transient ->
    let d, _ = timing_tables t p in
    Lut.eval2 d input_ramp cload

let output_ramp t p ~input_ramp ~cload =
  match t.backend with
  | Analytic -> Gate_model.output_ramp p ~input_ramp ~cload
  | Transient ->
    let _, r = timing_tables t p in
    Lut.eval2 r input_ramp cload

let glitch_tables t p =
  with_lock t (fun () ->
      match Pmap.find_opt p t.glitch_cache with
      | Some tb -> tb
      | None ->
        let ncaps = ncap_axis p in
        let axes = [| ncaps; charge_axis |] in
        let nq = Array.length charge_axis in
        let points =
          Array.init
            (Array.length ncaps * nq)
            (fun i -> (ncaps.(i / nq), charge_axis.(i mod nq)))
        in
        let measure_point output_low (ncap, charge) =
          (* the char harness takes the external load; subtract our own
             junction contribution from the requested node capacitance *)
          let cload = Float.max 0.05 (ncap -. Gate_model.output_cap p) in
          Ser_spice.Char.generated_glitch_width_h p ~cload ~charge ~output_low
        in
        let build output_low =
          let measured =
            Ser_par.Par.parallel_map (measure_point output_low) points
          in
          let cache = Hashtbl.create 64 in
          Array.iteri
            (fun i (ncap, charge) ->
              let w, health = measured.(i) in
              if health.Ser_spice.Engine.flagged then
                note_flagged t p ~what:"glitch"
                  ~q:(Printf.sprintf "ncap=%g charge=%g" ncap charge)
                  health;
              let v =
                if Float.is_finite w then w
                else
                  Gate_model.generated_glitch_width p ~node_cap:ncap ~charge
                    ~output_low
              in
              Hashtbl.replace cache (ncap, charge) v)
            points;
          Lut.build ~axes ~f:(fun q ->
              match Hashtbl.find_opt cache (q.(0), q.(1)) with
              | Some v -> v
              | None ->
                Gate_model.generated_glitch_width p ~node_cap:q.(0)
                  ~charge:q.(1) ~output_low)
        in
        let tb = (build true, build false) in
        t.glitch_cache <- Pmap.add p tb t.glitch_cache;
        tb)

let generated_glitch_width t p ~node_cap ~charge ~output_low =
  match t.backend with
  | Analytic -> Gate_model.generated_glitch_width p ~node_cap ~charge ~output_low
  | Transient ->
    let low_tbl, high_tbl = glitch_tables t p in
    Lut.eval2 (if output_low then low_tbl else high_tbl) node_cap charge

let warm_cache_size t =
  with_lock t (fun () ->
      Pmap.cardinal t.timing_cache + Pmap.cardinal t.glitch_cache)
