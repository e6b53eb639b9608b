module Rng = Abonn_util.Rng
module Obs = Abonn_obs.Obs
module Ev = Abonn_obs.Event
module Matrix = Abonn_tensor.Matrix
module Network = Abonn_nn.Network
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem

type t = {
  name : string;
  run : Rng.t -> Problem.t -> float array option;
}

(* Observe one attack: hit/miss counters, an ["attack.<name>"] span and
   one [attack_tried] event per invocation.  [best_effort] is itself
   observed, so its events nest around those of the attacks it tries —
   span totals of composite attacks include their components. *)
let observed ({ name; run } as attack) =
  { attack with
    run =
      (fun rng problem ->
        if not (Obs.active ()) then run rng problem
        else begin
          let t0 = Obs.now () in
          let result = run rng problem in
          let elapsed = Obs.now () -. t0 in
          let success = result <> None in
          Obs.incr
            (Printf.sprintf "attack.%s.%s" name (if success then "hits" else "misses"));
          Obs.span ("attack." ^ name) elapsed;
          if Obs.tracing () then
            Obs.emit (Ev.Attack_tried { attack = name; success; elapsed });
          result
        end) }

let margin problem x = Problem.concrete_margin problem x

let hit problem x = if margin problem x <= 0.0 then Some x else None

let fgsm_run _rng (problem : Problem.t) =
  let region = problem.Problem.region in
  let prop = problem.Problem.property in
  let centre = Region.center region in
  let radius = Region.radius region in
  (* One full-radius signed step against each row's gradient. *)
  let rec try_rows r =
    if r >= prop.Property.c.Matrix.rows then None
    else begin
      let d_out = Matrix.row prop.Property.c r in
      let g = Network.input_gradient problem.Problem.network centre ~d_out in
      let x =
        Array.mapi
          (fun j cj ->
            let s = if g.(j) > 0.0 then -1.0 else if g.(j) < 0.0 then 1.0 else 0.0 in
            cj +. (s *. radius.(j)))
          centre
      in
      let x = Region.clamp region x in
      match hit problem x with Some x -> Some x | None -> try_rows (r + 1)
    end
  in
  try_rows 0

let fgsm = observed { name = "fgsm"; run = fgsm_run }

let pgd_run ~restarts ~steps ~step_frac rng (problem : Problem.t) =
  let region = problem.Problem.region in
  let radius = Region.radius region in
  let descend x0 =
    let x = ref x0 in
    let best = ref x0 and best_margin = ref (margin problem x0) in
    let rec go step =
      if !best_margin <= 0.0 || step >= steps then ()
      else begin
        let g = Problem.worst_row_gradient problem !x in
        let x' =
          Array.mapi
            (fun j xj ->
              let s = if g.(j) > 0.0 then -1.0 else if g.(j) < 0.0 then 1.0 else 0.0 in
              xj +. (s *. step_frac *. radius.(j)))
            !x
        in
        let x' = Region.clamp region x' in
        x := x';
        let m = margin problem x' in
        if m < !best_margin then begin
          best := x';
          best_margin := m
        end;
        go (step + 1)
      end
    in
    go 0;
    if !best_margin <= 0.0 then Some !best else None
  in
  let rec try_restart r =
    if r >= restarts then None
    else begin
      let x0 = if r = 0 then Region.center region else Region.sample rng region in
      match descend x0 with Some x -> Some x | None -> try_restart (r + 1)
    end
  in
  try_restart 0

let pgd ?(restarts = 3) ?(steps = 40) ?(step_frac = 0.1) () =
  observed { name = "pgd"; run = pgd_run ~restarts ~steps ~step_frac }

let random_run ~samples rng (problem : Problem.t) =
  let region = problem.Problem.region in
  let rec go i =
    if i >= samples then None
    else begin
      let x =
        if i mod 2 = 0 then Region.sample rng region
        else Region.corner region (fun _ -> Rng.bool rng)
      in
      match hit problem x with Some x -> Some x | None -> go (i + 1)
    end
  in
  go 0

let random_search ?(samples = 200) () =
  observed { name = "random"; run = random_run ~samples }

let best_effort =
  observed
    { name = "best-effort";
      run =
        (fun rng problem ->
          let attacks = [ fgsm; pgd (); random_search () ] in
          List.find_map (fun a -> a.run rng problem) attacks) }
