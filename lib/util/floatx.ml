let clamp ~lo ~hi x =
  assert (lo <= hi);
  if x < lo then lo else if x > hi then hi else x

let lerp a b t = a +. ((b -. a) *. t)

let inv_lerp a b x = if a = b then 0. else (x -. a) /. (b -. a)

(* The early-cutoff comparison of the incremental engines. [true]
   guarantees the two values are bit-identical, so they are
   interchangeable in every downstream computation; [false] merely
   forces a recompute, which replays the same kernels and lands on the
   same bits — correct either way. Plain float [=] alone is not a valid
   [true]: it identifies 0. and -0. (distinguished here by their
   reciprocals, with no allocation, unlike [Int64.bits_of_float] which
   boxes in bytecode/dev builds). NaNs compare unequal and simply forgo
   the cutoff. *)
let same_bits a b = a = b && (a <> 0. || 1. /. a = 1. /. b)

let is_close ?(rtol = 1e-9) ?(atol = 1e-12) a b =
  Float.abs (a -. b) <= atol +. (rtol *. Float.max (Float.abs a) (Float.abs b))

let linspace a b n =
  assert (n >= 1);
  if n = 1 then [| a |]
  else
    Array.init n (fun i -> lerp a b (float_of_int i /. float_of_int (n - 1)))

let logspace a b n =
  assert (a > 0. && b > 0.);
  let la = log a and lb = log b in
  Array.map exp (linspace la lb n)

(* Kahan summation keeps the electrical-masking accumulations stable when a
   circuit mixes very wide and very narrow glitch widths. *)
let sum xs =
  let s = ref 0. and c = ref 0. in
  let add x =
    let y = x -. !c in
    let t = !s +. y in
    c := t -. !s -. y;
    s := t
  in
  Array.iter add xs;
  !s

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Floatx.mean: empty"
  else sum xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Floatx.stddev: empty"
  else
    let m = mean xs in
    let acc = Array.map (fun x -> (x -. m) *. (x -. m)) xs in
    sqrt (sum acc /. float_of_int n)

let mean_opt xs = if Array.length xs = 0 then None else Some (mean xs)

let stddev_opt xs = if Array.length xs = 0 then None else Some (stddev xs)

let all_finite xs = Array.for_all Float.is_finite xs

let count_nonfinite xs =
  Array.fold_left (fun acc x -> if Float.is_finite x then acc else acc + 1) 0 xs

let fold_range n ~init ~f =
  let rec loop acc i = if i >= n then acc else loop (f acc i) (i + 1) in
  loop init 0

let array_min xs =
  if Array.length xs = 0 then invalid_arg "Floatx.array_min: empty";
  Array.fold_left Float.min xs.(0) xs

let array_max xs =
  if Array.length xs = 0 then invalid_arg "Floatx.array_max: empty";
  Array.fold_left Float.max xs.(0) xs

let binary_search_bracket axis x =
  let n = Array.length axis in
  assert (n >= 2);
  if x <= axis.(0) then 0
  else if x >= axis.(n - 1) then n - 2
  else
    (* invariant: axis.(lo) <= x < axis.(hi) *)
    let rec loop lo hi =
      if hi - lo <= 1 then lo
      else
        let mid = (lo + hi) / 2 in
        if axis.(mid) <= x then loop mid hi else loop lo mid
    in
    loop 0 (n - 1)
