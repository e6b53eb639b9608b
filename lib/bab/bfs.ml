module Budget = Abonn_util.Budget
module Verdict = Abonn_spec.Verdict
module Appver = Abonn_prop.Appver

(* The FIFO frontier: items are visited first come, first served. *)
let drain k root visit =
  let queue = Queue.create () in
  Queue.add root queue;
  let push item = Queue.add item queue in
  let rec loop () =
    if Queue.is_empty queue then Verdict.Verified
    else if Budget.exhausted (Expand.budget k) then Verdict.Timeout
    else begin
      let ((_, depth, _) as item) = Queue.pop queue in
      Expand.popped k ~depth ~frontier:(Queue.length queue) ();
      match visit ~worker:0 ~push item with
      | Some x -> Verdict.Falsified x
      | None -> loop ()
    end
  in
  let verdict = loop () in
  Expand.finish k ~open_nodes:(Queue.length queue) verdict

let search k ~domains root (visit : _ Expand.visit) =
  if domains <= 1 then drain k root visit else Parfrontier.run k ~domains root visit

let run ?certify ?(appver = Appver.deeppoly) ?(heuristic = Branching.default) ?budget
    ?domains problem =
  let domains = Expand.domains domains in
  let k =
    Expand.create ?certify ~engine:"bab-baseline" ~metrics:"bfs" ~appver ?budget problem
  in
  let choosers = Array.init domains (fun _ -> heuristic.Branching.prepare problem) in
  (k, search k ~domains ([], 0, None) (Expand.visit k choosers))

let verify ?appver ?heuristic ?budget ?domains problem =
  snd (run ?appver ?heuristic ?budget ?domains problem)

let verify_with_certificate ?appver ?heuristic ?budget ?domains problem =
  let k, result = run ~certify:true ?appver ?heuristic ?budget ?domains problem in
  (result, Expand.certificate k result)
