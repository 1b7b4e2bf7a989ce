module Circuit = Ser_netlist.Circuit
module Gate = Ser_netlist.Gate

let signal_probabilities ?(pi_prob = 0.5) ?pi_probs (c : Circuit.t) =
  let p = Array.make (Circuit.node_count c) pi_prob in
  (match pi_probs with
  | Some ps ->
    if Array.length ps <> Array.length c.inputs then
      invalid_arg "Probs.signal_probabilities: pi_probs length mismatch";
    Array.iteri (fun pos id -> p.(id) <- ps.(pos)) c.inputs
  | None -> ());
  Array.iter
    (fun (nd : Circuit.node) ->
      if nd.kind <> Gate.Input then begin
        let pin k = p.(nd.fanin.(k)) in
        let n = Array.length nd.fanin in
        let prod_of f =
          let acc = ref 1. in
          for k = 0 to n - 1 do
            acc := !acc *. f (pin k)
          done;
          !acc
        in
        let v =
          match nd.kind with
          | Gate.Input -> assert false
          | Gate.Buf -> pin 0
          | Gate.Not -> 1. -. pin 0
          | Gate.And -> prod_of Fun.id
          | Gate.Nand -> 1. -. prod_of Fun.id
          | Gate.Or -> 1. -. prod_of (fun x -> 1. -. x)
          | Gate.Nor -> prod_of (fun x -> 1. -. x)
          | Gate.Xor | Gate.Xnor ->
            let acc = ref (pin 0) in
            for k = 1 to n - 1 do
              let q = pin k in
              acc := (!acc *. (1. -. q)) +. ((1. -. !acc) *. q)
            done;
            if nd.kind = Gate.Xor then !acc else 1. -. !acc
        in
        p.(nd.id) <- v
      end)
    c.nodes;
  p

(* Monte-Carlo estimates draw one independent RNG stream per batch of
   [Bitsim.bits_per_word] patterns ([Rng.stream base b] for batch [b]),
   so the patterns — and therefore the counts — are a pure function of
   the caller's generator state and the vector count, identical for any
   worker count or chunking. The caller's generator is advanced once
   (by the [Rng.split] that derives [base]). *)
let batch_count vectors = (vectors + Bitsim.bits_per_word - 1) / Bitsim.bits_per_word

let signal_probabilities_mc ?pi_probs ~rng ~vectors (c : Circuit.t) =
  let n = Circuit.node_count c in
  let base = Ser_rng.Rng.split rng in
  let counts =
    Ser_par.Par.parallel_reduce ~n:(batch_count vectors)
      ~init:(Array.make n 0)
      ~map:(fun ~lo ~hi ->
        let counts = Array.make n 0 in
        for b = lo to hi - 1 do
          let rng_b = Ser_rng.Rng.stream base b in
          let k = min (vectors - (b * Bitsim.bits_per_word)) Bitsim.bits_per_word in
          let batch = Bitsim.random_batch ?pi_probs rng_b c ~n_patterns:k in
          for id = 0 to n - 1 do
            counts.(id) <- counts.(id) + Bitsim.ones_count batch id
          done
        done;
        counts)
      ~combine:(fun a b ->
        Array.iteri (fun i v -> a.(i) <- a.(i) + v) b;
        a)
      ()
  in
  Array.map (fun k -> float_of_int k /. float_of_int vectors) counts

let side_sensitization (c : Circuit.t) ~probs ~gate ~pin =
  let nd = Circuit.node c gate in
  if nd.kind = Gate.Input then invalid_arg "Probs.side_sensitization: Input";
  let n = Array.length nd.fanin in
  if pin < 0 || pin >= n then invalid_arg "Probs.side_sensitization: bad pin";
  match Gate.sensitizing_side_value nd.kind with
  | None -> 1.
  | Some v ->
    let acc = ref 1. in
    for k = 0 to n - 1 do
      if k <> pin then begin
        let p = probs.(nd.fanin.(k)) in
        acc := !acc *. (if v then p else 1. -. p)
      end
    done;
    !acc

let sensitization_to_driver (c : Circuit.t) ~probs ~gate ~driver =
  let nd = Circuit.node c gate in
  let best = ref None in
  Array.iteri
    (fun pin f ->
      if f = driver then begin
        let s = side_sensitization c ~probs ~gate ~pin in
        match !best with
        | Some b when b >= s -> ()
        | Some _ | None -> best := Some s
      end)
    nd.fanin;
  match !best with Some s -> s | None -> raise Not_found

type path_probs = {
  vectors : int;
  po_index : int array;
  p : float array array;
}

(* Bit-parallel fault simulation: for each batch of patterns and each
   gate, flip the gate's output word and propagate the difference
   through its (precomputed, topologically ordered) fan-out cone,
   counting at the primary outputs the patterns whose value changed. *)
(* Per-gate fault propagation over one batch of patterns. [ws] holds
   the domain-local scratch (faulty values + generation stamps). *)
type fault_scratch = {
  faulty : int array;
  stamp : int array;
  mutable gen : int;
}

let fresh_scratch n = { faulty = Array.make n 0; stamp = Array.make n (-1); gen = 0 }

(* Core flip propagation: invert gate [i]'s output word and walk its
   (topologically ordered) fan-out [cone], calling [on_diff t diff] for
   every cone node whose word actually changed ([diff] is the nonzero
   masked xor against the good value). Shared by the per-PO detection
   counters below and by lib/odc's any-PO observability kernel. *)
let propagate_flip (c : Circuit.t) ~cone ~good ~mask ws i ~on_diff =
  ws.gen <- ws.gen + 1;
  let g = ws.gen in
  let faulty = ws.faulty and stamp = ws.stamp in
  faulty.(i) <- lnot good.(i);
  stamp.(i) <- g;
  for idx = 0 to Array.length cone - 1 do
    let t = cone.(idx) in
    if t <> i then begin
      let nd = c.Circuit.nodes.(t) in
      let fi = nd.Circuit.fanin in
      (* only re-evaluate when a fanin actually changed; a node whose
         recomputed value equals the good value is not stamped, pruning
         its own fan-out (logical masking) *)
      let touched = ref false in
      for q = 0 to Array.length fi - 1 do
        if stamp.(fi.(q)) = g then touched := true
      done;
      if !touched then begin
        let value_of f = if stamp.(f) = g then faulty.(f) else good.(f) in
        let v =
          match nd.Circuit.kind with
          | Gate.Input -> good.(t)
          | Gate.Buf -> value_of fi.(0)
          | Gate.Not -> lnot (value_of fi.(0))
          | Gate.And | Gate.Nand ->
            let acc = ref (value_of fi.(0)) in
            for q = 1 to Array.length fi - 1 do
              acc := !acc land value_of fi.(q)
            done;
            if nd.Circuit.kind = Gate.And then !acc else lnot !acc
          | Gate.Or | Gate.Nor ->
            let acc = ref (value_of fi.(0)) in
            for q = 1 to Array.length fi - 1 do
              acc := !acc lor value_of fi.(q)
            done;
            if nd.Circuit.kind = Gate.Or then !acc else lnot !acc
          | Gate.Xor | Gate.Xnor ->
            let acc = ref (value_of fi.(0)) in
            for q = 1 to Array.length fi - 1 do
              acc := !acc lxor value_of fi.(q)
            done;
            if nd.Circuit.kind = Gate.Xor then !acc else lnot !acc
        in
        if (v lxor good.(t)) land mask <> 0 then begin
          faulty.(t) <- v;
          stamp.(t) <- g
        end
      end
    end;
    if stamp.(t) = g then begin
      let diff = (faulty.(t) lxor good.(t)) land mask in
      if diff <> 0 then on_diff t diff
    end
  done

let propagate_gate (c : Circuit.t) ~cones ~is_po ~good ~mask ~detect ws i =
  propagate_flip c ~cone:cones.(i) ~good ~mask ws i ~on_diff:(fun t diff ->
      let pos = is_po.(t) in
      if pos >= 0 then
        detect.(i).(pos) <- detect.(i).(pos) + Bitsim.popcount diff)

let flip_observed_word (c : Circuit.t) ~cone ~is_po ~good ~mask ws i =
  let acc = ref 0 in
  propagate_flip c ~cone ~good ~mask ws i ~on_diff:(fun t diff ->
      if is_po.(t) >= 0 then acc := !acc lor diff);
  !acc

let path_probabilities ?pi_probs ?prune ~rng ~vectors (c : Circuit.t) =
  let n = Circuit.node_count c in
  let n_pos = Array.length c.outputs in
  (* Pruned sites (ODC-proven masked) are dropped before the cone
     precomputation and the gate deal: their detect rows stay all-zero,
     which is exactly what an exhaustive no-PO-difference witness
     guarantees simulation would produce, so surviving rows are
     bit-identical to the unpruned run. *)
  let pruned =
    match prune with
    | None -> fun _ -> false
    | Some p ->
      if Array.length p <> n then
        invalid_arg "Probs.path_probabilities: prune length mismatch";
      fun i -> p.(i)
  in
  let cones =
    Array.init n (fun id ->
        if Circuit.is_input c id || pruned id then [||]
        else Circuit.fanout_cone c id)
  in
  let is_po = Array.make n (-1) in
  Array.iteri (fun pos id -> is_po.(id) <- pos) c.outputs;
  let detect = Array.make_matrix n n_pos 0 in
  let gates =
    Array.of_list
      (List.filter
         (fun i -> (not (Circuit.is_input c i)) && not (pruned i))
         (List.init n Fun.id))
  in
  (* Per-gate cost is the fanout-cone size, and cones are heavily
     skewed: gates near the primary inputs drag cones of thousands of
     gates while sinks touch a handful (the incr.cone_gates histogram
     shows the same spread on the incremental path). Topological id
     order clusters the heavy gates into the same leading chunks, so
     the default ~32-chunk split leaves one chunk ~4x the mean and a
     straggler tail no amount of stealing can break up (c7552:
     par.chunk max/mean > 4 inside every aserta.masking batch). Dealing
     the gates round-robin across the chunks in descending cone order
     gives every chunk the same heavy-to-light profile, so chunk sums
     even out and stealing only has to absorb the residue. Gate order
     is free to change: each gate owns its [detect] row and its
     patterns come from the index-keyed stream, so results stay
     bit-identical for any order, chunking and worker count. *)
  let n_gates = Array.length gates in
  let chunk = max 1 ((n_gates + 63) / 64) in
  if n_gates > 1 then begin
    Array.sort
      (fun a b ->
        match compare (Array.length cones.(b)) (Array.length cones.(a)) with
        | 0 -> compare a b
        | r -> r)
      gates;
    let nchunks = (n_gates + chunk - 1) / chunk in
    let dealt = Array.make n_gates gates.(0) in
    let pos = ref 0 in
    for c = 0 to nchunks - 1 do
      let s = ref c in
      while !s < n_gates do
        dealt.(!pos) <- gates.(!s);
        Stdlib.incr pos;
        s := !s + nchunks
      done
    done;
    Array.blit dealt 0 gates 0 n_gates
  end;
  (* Results are bit-identical at any pool width: every gate's detect
     row is owned by exactly one chunk, and the random patterns of
     batch [b] come from the index-keyed stream [Rng.stream base b] —
     never from a generator shared across workers (the old per-call
     [Domain.spawn] code drew all batches from one sequential stream,
     which made results depend on how many batches each domain had
     consumed). *)
  let slots = Ser_par.Par.jobs () in
  let scratches = Array.init slots (fun _ -> fresh_scratch n) in
  let base = Ser_rng.Rng.split rng in
  let nbatches = batch_count vectors in
  for b = 0 to nbatches - 1 do
    let rng_b = Ser_rng.Rng.stream base b in
    let k = min (vectors - (b * Bitsim.bits_per_word)) Bitsim.bits_per_word in
    let mask = Bitsim.mask_of k in
    let batch = Bitsim.random_batch ?pi_probs rng_b c ~n_patterns:k in
    let good = batch.Bitsim.values in
    let body ~slot ~lo ~hi =
      for idx = lo to hi - 1 do
        propagate_gate c ~cones ~is_po ~good ~mask ~detect
          scratches.(min slot (slots - 1))
          gates.(idx)
      done
    in
    Ser_par.Par.parallel_chunks ~chunk ~n:n_gates body
  done;
  let p =
    Array.map
      (fun row -> Array.map (fun d -> float_of_int d /. float_of_int vectors) row)
      detect
  in
  { vectors; po_index = Array.init n_pos Fun.id; p }

let path_probabilities_analytic ?probs (c : Circuit.t) =
  let probs =
    match probs with Some p -> p | None -> signal_probabilities c
  in
  let n = Circuit.node_count c in
  let n_pos = Array.length c.outputs in
  let p = Array.make_matrix n n_pos 0. in
  let po_pos = Array.make n (-1) in
  Array.iteri (fun pos id -> po_pos.(id) <- pos) c.outputs;
  (* reverse topological: successors are ready before their drivers *)
  for id = n - 1 downto 0 do
    if not (Circuit.is_input c id) then begin
      if po_pos.(id) >= 0 then p.(id).(po_pos.(id)) <- 1.;
      let nd = c.nodes.(id) in
      (* unique successors *)
      let seen = Hashtbl.create 4 in
      Array.iter
        (fun s ->
          if not (Hashtbl.mem seen s) then begin
            Hashtbl.replace seen s ();
            let sens = sensitization_to_driver c ~probs ~gate:s ~driver:id in
            if sens > 0. then
              for j = 0 to n_pos - 1 do
                if p.(s).(j) > 0. && po_pos.(id) <> j then
                  p.(id).(j) <-
                    1. -. ((1. -. p.(id).(j)) *. (1. -. (sens *. p.(s).(j))))
              done
          end)
        nd.fanout
    end
  done;
  { vectors = 0; po_index = Array.init n_pos Fun.id; p }

let detection_counts_for_vector (c : Circuit.t) vector ~strike =
  if Circuit.is_input c strike then
    invalid_arg "Probs.detection_counts_for_vector: strike on a primary input";
  let good = Bitsim.eval_vector c vector in
  let faulty = Array.copy good in
  faulty.(strike) <- not good.(strike);
  let cone = Circuit.fanout_cone c strike in
  Array.iter
    (fun t ->
      if t <> strike then begin
        let nd = Circuit.node c t in
        if nd.kind <> Gate.Input then
          faulty.(t) <-
            Gate.eval_bool nd.kind (Array.map (fun f -> faulty.(f)) nd.fanin)
      end)
    cone;
  Array.map (fun po -> faulty.(po) <> good.(po)) c.outputs
