type divergence = {
  index : int;
  depth_a : int;
  depth_b : int;
  gamma_a : string option;
  gamma_b : string option;
}

type t = {
  run_a : Summary.run;
  run_b : Summary.run;
  visits_a : int;
  visits_b : int;
  divergence : divergence option;
  shared_prefix : int;
  phases_a : Phases.t;
  phases_b : Phases.t;
}

let first_segment events =
  match Summary.segments events with seg :: _ -> seg | [] -> []

let diff a b =
  let seg_a = first_segment a and seg_b = first_segment b in
  let va = Summary.visits seg_a and vb = Summary.visits seg_b in
  let shared_prefix, first = Summary.common_prefix va vb in
  { run_a = Summary.of_events seg_a;
    run_b = Summary.of_events seg_b;
    visits_a = List.length va;
    visits_b = List.length vb;
    divergence =
      Option.map
        (fun ((x : Summary.visit), (y : Summary.visit)) ->
          { index = shared_prefix; depth_a = x.depth; depth_b = y.depth;
            gamma_a = x.gamma; gamma_b = y.gamma })
        first;
    shared_prefix;
    phases_a = Phases.of_events seg_a;
    phases_b = Phases.of_events seg_b }

let to_string ?label_a ?label_b d =
  let la = Option.value ~default:d.run_a.Summary.engine label_a in
  let lb = Option.value ~default:d.run_b.Summary.engine label_b in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-24s %14s %14s %14s\n" "metric" la lb "delta (B-A)");
  Buffer.add_string buf (String.make 70 '-');
  Buffer.add_char buf '\n';
  let str name a b =
    Buffer.add_string buf (Printf.sprintf "%-24s %14s %14s\n" name a b)
  in
  let int name a b =
    Buffer.add_string buf
      (Printf.sprintf "%-24s %14d %14d %+14d\n" name a b (b - a))
  in
  let flt name a b =
    Buffer.add_string buf
      (Printf.sprintf "%-24s %14.6f %14.6f %+14.6f\n" name a b (b -. a))
  in
  let ra = d.run_a and rb = d.run_b in
  str "verdict"
    (Option.value ~default:"open" ra.Summary.verdict)
    (Option.value ~default:"open" rb.Summary.verdict);
  int "appver calls" ra.Summary.calls rb.Summary.calls;
  int "nodes" ra.Summary.nodes rb.Summary.nodes;
  int "max depth" ra.Summary.max_depth rb.Summary.max_depth;
  flt "wall s" ra.Summary.wall rb.Summary.wall;
  int "visits to verdict" d.visits_a d.visits_b;
  flt "phase: appver s" d.phases_a.Phases.appver_total.Phases.total
    d.phases_b.Phases.appver_total.Phases.total;
  let lp_outside (p : Phases.t) =
    Float.max 0.0 (p.Phases.lp.Phases.total -. p.Phases.lp_in_appver)
  in
  flt "phase: lp (exact) s" (lp_outside d.phases_a) (lp_outside d.phases_b);
  flt "phase: attack s" d.phases_a.Phases.attack_total.Phases.total
    d.phases_b.Phases.attack_total.Phases.total;
  flt "phase: overhead s" d.phases_a.Phases.overhead d.phases_b.Phases.overhead;
  Buffer.add_string buf (Printf.sprintf "shared visit prefix: %d\n" d.shared_prefix);
  (match d.divergence with
   | None ->
     Buffer.add_string buf
       "divergence: none (one visit sequence is a prefix of the other)\n"
   | Some dv ->
     Buffer.add_string buf
       (Printf.sprintf "divergence at visit %d: %s (depth %d) vs %s (depth %d)\n" dv.index
          (Option.value ~default:"?" dv.gamma_a)
          dv.depth_a
          (Option.value ~default:"?" dv.gamma_b)
          dv.depth_b));
  Buffer.contents buf
