type t = { lower : float array; upper : float array }

let create ~lower ~upper =
  if Array.length lower <> Array.length upper then
    invalid_arg "Region.create: dimension mismatch";
  Array.iteri
    (fun i lo ->
      if not (Float.is_finite lo && Float.is_finite upper.(i)) then
        invalid_arg "Region.create: non-finite bound";
      if lo > upper.(i) then invalid_arg "Region.create: lower > upper")
    lower;
  { lower = Array.copy lower; upper = Array.copy upper }

let linf_ball ?clip ~center ~eps () =
  if eps < 0.0 then invalid_arg "Region.linf_ball: negative radius";
  let lo, hi =
    match clip with
    | None -> (neg_infinity, infinity)
    | Some (a, b) -> (a, b)
  in
  let lower = Array.map (fun c -> Float.max lo (c -. eps)) center in
  let upper = Array.map (fun c -> Float.min hi (c +. eps)) center in
  create ~lower ~upper

let dim t = Array.length t.lower

let center t = Array.mapi (fun i lo -> (lo +. t.upper.(i)) /. 2.0) t.lower

let radius t = Array.mapi (fun i lo -> (t.upper.(i) -. lo) /. 2.0) t.lower

let contains t x =
  Array.length x = dim t
  && begin
       let ok = ref true in
       for i = 0 to dim t - 1 do
         if x.(i) < t.lower.(i) -. 1e-9 || x.(i) > t.upper.(i) +. 1e-9 then ok := false
       done;
       !ok
     end

let clamp t x =
  Array.mapi (fun i xi -> Float.max t.lower.(i) (Float.min t.upper.(i) xi)) x

let sample rng t =
  Array.mapi (fun i lo -> Abonn_util.Rng.range rng lo t.upper.(i)) t.lower

let corner t pick = Array.mapi (fun i lo -> if pick i then t.upper.(i) else lo) t.lower

let volume_log t =
  let acc = ref 0.0 in
  for i = 0 to dim t - 1 do
    let w = t.upper.(i) -. t.lower.(i) in
    acc := !acc +. (if w <= 0.0 then neg_infinity else log w)
  done;
  !acc
