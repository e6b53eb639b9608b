(* Order statistics used by the benchmark's metrics. *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: empty"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Samples that lie beyond the [q]-quantile of [n] samples. *)
let beyond ~n q = n - int_of_float (Float.ceil (q *. float_of_int n))

(* [percentile ~min_beyond q xs] is the [q]-quantile of [xs] by linear
   interpolation between order statistics, or [None] when fewer than
   [min_beyond] samples lie beyond it: a tail percentile resting on a
   handful of samples moves with any one of them.  With
   [min_beyond = 10], p75 needs 40 samples. *)
let percentile ?(min_beyond = 0) q xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 || beyond ~n q < min_beyond then None
  else begin
    Array.sort compare a;
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor h) in
    let hi = min (n - 1) (lo + 1) in
    Some (a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo))))
  end

(* Time-to-verdict [q]-quantile over the decided solves of
   [(verdict, seconds)] pairs.  Timeouts are left out: each burns the
   same call budget, so they would pin the upper quantiles to the budget;
   solved_frac counts them instead. *)
let verdict_percentile ?min_beyond q solves =
  percentile ?min_beyond q
    (List.filter_map
       (fun (v, t) -> if Abonn_spec.Verdict.is_solved v then Some t else None)
       solves)
