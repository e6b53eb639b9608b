module Affine = Abonn_nn.Affine
module Trainer = Abonn_nn.Trainer
module Region = Abonn_spec.Region
module Property = Abonn_spec.Property
module Problem = Abonn_spec.Problem
module Outcome = Abonn_prop.Outcome
module Attack = Abonn_attack.Attack

type band =
  | Between of float
  | Above_attack of float

type t = {
  id : string;
  model : string;
  index : int;
  eps : float;
  factor : float;
  band : band;
  problem : Problem.t;
}

let problem_of ~affine ~center ~label ~num_classes ~eps =
  let region = Region.linf_ball ~clip:(0.0, 1.0) ~center ~eps () in
  let property = Property.robustness ~num_classes ~label in
  Problem.of_affine ~affine ~region ~property ()

(* Instance generation bounds candidate problems outside any run, so it
   calls DeepPoly uninstrumented: no [bound_computed] event, counter or
   span. *)
let root_outcome problem = fst (Abonn_prop.Deeppoly.analyse_warm problem [])

let proves ~affine ~center ~label ~num_classes ~eps =
  Outcome.proved (root_outcome (problem_of ~affine ~center ~label ~num_classes ~eps))

let certified_radius ~affine ~center ~label ~num_classes =
  let rec bisect lo hi n =
    if n = 0 then lo
    else begin
      let mid = (lo +. hi) /. 2.0 in
      if proves ~affine ~center ~label ~num_classes ~eps:mid then bisect mid hi (n - 1)
      else bisect lo mid (n - 1)
    end
  in
  if not (proves ~affine ~center ~label ~num_classes ~eps:1e-5) then 1e-5
  else bisect 1e-5 0.5 10

let attacked ~affine ~center ~label ~num_classes ~eps =
  let problem = problem_of ~affine ~center ~label ~num_classes ~eps in
  Attack.best_effort.Attack.run (Abonn_util.Rng.create 7) problem <> None

let attack_radius ~affine ~center ~label ~num_classes ~r_cert =
  let hi0 = 8.0 *. r_cert in
  if not (attacked ~affine ~center ~label ~num_classes ~eps:hi0) then None
  else begin
    let rec bisect lo hi n =
      if n = 0 then hi
      else begin
        let mid = (lo +. hi) /. 2.0 in
        if attacked ~affine ~center ~label ~num_classes ~eps:mid then bisect lo mid (n - 1)
        else bisect mid hi (n - 1)
      end
    in
    Some (bisect r_cert hi0 10)
  end

let default_bands =
  [ Between 0.35; Above_attack 0.99; Above_attack 1.01; Between 0.85; Above_attack 1.2;
    Between 0.15 ]

(* A problem is "meaningful" in the paper's sense when the root AppVer
   call neither proves it nor validates its candidate: BaB must actually
   branch (tree size >= 3 in Fig. 3's terms). *)
let undecided_at_root problem =
  let outcome = root_outcome problem in
  (not (Outcome.proved outcome))
  &&
  match outcome.Outcome.candidate with
  | Some x -> not (Problem.is_counterexample problem x)
  | None -> true

let eps_for_band ~r_cert ~r_att band =
  match band, r_att with
  | Between f, Some r -> r_cert +. (f *. (r -. r_cert))
  | Between f, None -> r_cert *. (1.0 +. (3.0 *. f))
  | Above_attack f, Some r -> f *. r
  | Above_attack f, None -> r_cert *. (2.0 *. f)

let band_tag = function
  | Between f -> Printf.sprintf "b%.2f" f
  | Above_attack f -> Printf.sprintf "a%.2f" f

let generate ?(count = 20) ?(bands = default_bands) (trained : Models.trained) =
  let affine = Abonn_nn.Affine.of_network trained.Models.network in
  let dataset = trained.Models.dataset in
  let num_classes = dataset.Synth.num_classes in
  let bands = Array.of_list bands in
  let correct =
    dataset.Synth.test |> Array.to_list
    |> List.mapi (fun i s -> (i, s))
    |> List.filter (fun (_, s) ->
           Abonn_nn.Network.predict trained.Models.network s.Trainer.features
           = s.Trainer.label)
  in
  let rec build acc n attempt = function
    | [] -> List.rev acc
    | _ when n >= count -> List.rev acc
    | (index, sample) :: rest ->
      let center = sample.Trainer.features in
      let label = sample.Trainer.label in
      let r_cert = certified_radius ~affine ~center ~label ~num_classes in
      let r_att = attack_radius ~affine ~center ~label ~num_classes ~r_cert in
      let band = bands.(attempt mod Array.length bands) in
      let eps = eps_for_band ~r_cert ~r_att band in
      let problem = problem_of ~affine ~center ~label ~num_classes ~eps in
      if eps > 0.0 && undecided_at_root problem then begin
        let id =
          Printf.sprintf "%s/%02d#%s" trained.Models.spec.Models.name index (band_tag band)
        in
        let inst =
          { id;
            model = trained.Models.spec.Models.name;
            index;
            eps;
            factor = eps /. r_cert;
            band;
            problem }
        in
        build (inst :: acc) (n + 1) (attempt + 1) rest
      end
      else build acc n (attempt + 1) rest
  in
  build [] 0 0 correct

let acas ?(count = 8) ?(seed = 0) ?hidden_layers ?width () =
  List.init count (fun i ->
      let pid = List.nth Acas.property_ids (i mod List.length Acas.property_ids) in
      let s = seed + (i / List.length Acas.property_ids) in
      let problem = Acas.problem ?hidden_layers ?width ~seed:s pid in
      let region = problem.Abonn_spec.Problem.region in
      let radius = Abonn_spec.Region.radius region in
      let eps =
        Array.fold_left ( +. ) 0.0 radius /. float_of_int (Array.length radius)
      in
      { id = Printf.sprintf "acas_%d/%s" s (Acas.property_name pid);
        model = "acas";
        index = s;
        eps;
        factor = 1.0;
        band = Between 0.0;
        problem })
