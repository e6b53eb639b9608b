module Budget = Abonn_util.Budget
module Pool = Abonn_par.Pool
module Verdict = Abonn_spec.Verdict

type t = {
  (* first validated counterexample wins; CAS keeps later writers out *)
  found : float array option Atomic.t;
  (* a worker saw the budget trip with work still pending *)
  timeout : bool Atomic.t;
}

let create () = { found = Atomic.make None; timeout = Atomic.make false }

let note_cex st ctx x =
  ignore (Atomic.compare_and_set st.found None (Some x));
  Pool.request_stop ctx

let note_timeout st ctx =
  Atomic.set st.timeout true;
  Pool.request_stop ctx

let verdict st =
  match Atomic.get st.found with
  | Some x -> Verdict.Falsified x
  | None -> if Atomic.get st.timeout then Verdict.Timeout else Verdict.Verified

let run k ~domains root visit =
  let st = create () in
  (* items arriving after a stop request are dropped; the budget is
     re-checked before every item, like the sequential loops do *)
  let work ctx ((_, depth, _) as item) =
    if not (Pool.stop_requested ctx) then
      if Budget.exhausted (Expand.budget k) then note_timeout st ctx
      else begin
        Expand.popped k ~depth ~frontier:(Pool.queue_length ctx) ();
        Option.iter (note_cex st ctx)
          (visit ~worker:(Pool.id ctx) ~push:(Pool.push ctx) item)
      end
  in
  ignore (Pool.run ~domains ~engine:(Expand.engine k) ~roots:[ root ] ~work ());
  Expand.finish k ~open_nodes:0 (verdict st)
