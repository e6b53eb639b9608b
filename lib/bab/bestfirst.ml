module Heap = Abonn_util.Heap
module Budget = Abonn_util.Budget
module Verdict = Abonn_spec.Verdict
module Outcome = Abonn_prop.Outcome
module Appver = Abonn_prop.Appver

exception Found of float array

(* The p̂-keyed heap: nodes are evaluated when created, and the most
   violated open node is expanded next. *)
let best_first k choose =
  let heap : Expand.node Heap.t = Heap.create () in
  let enqueue = function
    | node, `Open -> Heap.push heap node.Expand.outcome.Outcome.phat node
    | _, `Verified -> ()
    | _, `Falsified x -> raise (Found x)
  in
  let rec loop () =
    if Heap.is_empty heap then Verdict.Verified
    else if Budget.exhausted (Expand.budget k) then Verdict.Timeout
    else
      match Heap.pop heap with
      | None -> Verdict.Verified
      | Some (priority, node) ->
        Expand.popped k ~priority
          ~runner_up:(fun () ->
            match Heap.peek heap with Some (p, _) -> p | None -> Float.nan)
          ~depth:node.Expand.depth ~frontier:(Heap.length heap) ();
        (match Expand.branch k choose node with
         | `Split (a, b) ->
           (* both children warm-start from the popped node's state *)
           enqueue (Expand.child k node a);
           enqueue (Expand.child k node b);
           loop ()
         | `Verified -> loop ()
         | `Falsified x -> Verdict.Falsified x)
  in
  let verdict =
    try
      enqueue (Expand.evaluate k [] ~depth:0);
      loop ()
    with Found x -> Verdict.Falsified x
  in
  Expand.finish k ~open_nodes:(Heap.length heap) verdict

let search ?(heuristic = Branching.default) ?domains k =
  let domains = Expand.domains domains in
  let prepare _ = heuristic.Branching.prepare (Expand.problem k) in
  (* [domains > 1] trades the global p̂ order for the pool's per-domain
     LIFO + steal order (docs/PARALLELISM.md); the verdict of complete
     runs is unchanged *)
  if domains <= 1 then best_first k (prepare ())
  else
    Parfrontier.run k ~domains ([], 0, None)
      (Expand.visit k (Array.init domains prepare))

let verify ?(appver = Appver.deeppoly) ?heuristic ?budget ?domains problem =
  search ?heuristic ?domains
    (Expand.create ~engine:"bestfirst" ~metrics:"bestfirst" ~appver ?budget problem)
