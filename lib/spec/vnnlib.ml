module Matrix = Abonn_tensor.Matrix
module Parse_error = Abonn_util.Parse_error

type linterm = { coeffs : float array; offset : float }

type t = {
  num_inputs : int;
  num_outputs : int;
  lower : float array;
  upper : float array;
  disjuncts : linterm list list;
}

let max_disjuncts = 64

(* --- s-expressions with source positions --------------------------- *)

type loc = { l : int; c : int }
type sexp = Atom of string * loc | List of sexp list * loc

(* --- parser -------------------------------------------------------- *)

(* A linear term while variable counts are still unknown: coefficient
   assoc lists over input (X) and output (Y) indices, plus a constant. *)
type lin = { xv : (int * float) list; yv : (int * float) list; k : float }

type batom =
  | Bound of int * [ `Le | `Ge ] * float * loc  (* X_i <= / >= value *)
  | Lit of (int * float) list * float * loc  (* Σ c_j·Y_j + k <= 0 *)

type form = Leaf of batom | And of form list | Or of form list

let parse ?(source = "<string>") ?network text =
  let err { l; c } token fmt =
    Parse_error.error ~source ~pos:(Parse_error.Line { line = l; col = c }) ~token fmt
  in
  (* tokenizer / reader *)
  let n = String.length text in
  let pos = ref 0 and line = ref 1 and col = ref 1 in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () =
    (match text.[!pos] with
     | '\n' ->
       incr line;
       col := 1
     | _ -> incr col);
    incr pos
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\r' | '\n') ->
      advance ();
      skip_ws ()
    | Some ';' ->
      let rec comment () =
        match peek () with
        | Some '\n' | None -> ()
        | Some _ ->
          advance ();
          comment ()
      in
      comment ();
      skip_ws ()
    | _ -> ()
  in
  let rec read_form () =
    let here = { l = !line; c = !col } in
    match peek () with
    | Some '(' ->
      advance ();
      let items = ref [] in
      let rec loop () =
        skip_ws ();
        match peek () with
        | None -> err here "(" "unbalanced parentheses: missing ')'"
        | Some ')' -> advance ()
        | Some _ ->
          items := read_form () :: !items;
          loop ()
      in
      loop ();
      List (List.rev !items, here)
    | Some ')' -> err here ")" "unbalanced parentheses: unexpected ')'"
    | Some _ ->
      let buf = Buffer.create 8 in
      let rec word () =
        match peek () with
        | Some (' ' | '\t' | '\r' | '\n' | '(' | ')' | ';') | None -> ()
        | Some ch ->
          Buffer.add_char buf ch;
          advance ();
          word ()
      in
      word ();
      Atom (Buffer.contents buf, here)
    | None -> assert false
  in
  let forms =
    let acc = ref [] in
    let rec top () =
      skip_ws ();
      if !pos < n then begin
        acc := read_form () :: !acc;
        top ()
      end
    in
    top ();
    List.rev !acc
  in
  (* declarations *)
  let xdecl = Hashtbl.create 16 and ydecl = Hashtbl.create 16 in
  let var_of name =
    let index prefix =
      let plen = String.length prefix in
      if String.length name > plen && String.sub name 0 plen = prefix then
        match int_of_string_opt (String.sub name plen (String.length name - plen)) with
        | Some i when i >= 0 -> Some i
        | _ -> None
      else None
    in
    match index "X_" with
    | Some i -> Some (`X i)
    | None -> ( match index "Y_" with Some i -> Some (`Y i) | None -> None)
  in
  (* index -> position of its first declaration *)
  let declare loc name =
    let add decl i = if not (Hashtbl.mem decl i) then Hashtbl.add decl i loc in
    match var_of name with
    | Some (`X i) -> add xdecl i
    | Some (`Y i) -> add ydecl i
    | None -> err loc name "expected a variable named X_<i> or Y_<i>"
  in
  (* linear terms *)
  let lin_const k = { xv = []; yv = []; k } in
  let lin_add a b = { xv = a.xv @ b.xv; yv = a.yv @ b.yv; k = a.k +. b.k } in
  let lin_scale s a =
    { xv = List.map (fun (i, v) -> (i, s *. v)) a.xv;
      yv = List.map (fun (i, v) -> (i, s *. v)) a.yv;
      k = s *. a.k }
  in
  let lin_sub a b = lin_add a (lin_scale (-1.0) b) in
  let rec lin_of = function
    | Atom (word, loc) -> (
      match float_of_string_opt word with
      | Some k when Float.is_finite k -> lin_const k
      | Some _ -> err loc word "expected a finite number"
      | None -> (
        match var_of word with
        | Some (`X i) ->
          if not (Hashtbl.mem xdecl i) then err loc word "undeclared variable";
          { xv = [ (i, 1.0) ]; yv = []; k = 0.0 }
        | Some (`Y i) ->
          if not (Hashtbl.mem ydecl i) then err loc word "undeclared variable";
          { xv = []; yv = [ (i, 1.0) ]; k = 0.0 }
        | None -> err loc word "expected a number or a variable"))
    | List (Atom ("+", _) :: (_ :: _ as args), _) ->
      List.fold_left (fun acc a -> lin_add acc (lin_of a)) (lin_const 0.0) args
    | List ([ Atom ("-", _); a ], _) -> lin_scale (-1.0) (lin_of a)
    | List (Atom ("-", _) :: a :: (_ :: _ as rest), _) ->
      List.fold_left (fun acc b -> lin_sub acc (lin_of b)) (lin_of a) rest
    | List ([ Atom ("*", loc); a; b ], _) -> (
      let la = lin_of a and lb = lin_of b in
      match (la.xv @ la.yv, lb.xv @ lb.yv) with
      | [], _ -> lin_scale la.k lb
      | _, [] -> lin_scale lb.k la
      | _ -> err loc "*" "nonlinear term: both factors contain variables")
    | List (Atom (op, loc) :: _, _) ->
      err loc op "unsupported term operator (expected +, - or *)"
    | List (_, loc) -> err loc "(" "expected a term"
  in
  (* sum duplicate indices, drop zero coefficients, keep first-seen order *)
  let consolidate pairs =
    let order = ref [] and sums = Hashtbl.create 8 in
    List.iter
      (fun (i, v) ->
        if not (Hashtbl.mem sums i) then begin
          order := i :: !order;
          Hashtbl.add sums i 0.0
        end;
        Hashtbl.replace sums i (Hashtbl.find sums i +. v))
      pairs;
    List.filter_map
      (fun i ->
        let v = Hashtbl.find sums i in
        if v = 0.0 then None else Some (i, v))
      (List.rev !order)
  in
  let compare_of loc op lhs rhs =
    (* normalize to diff <= 0 *)
    let diff =
      match op with `Le -> lin_sub (lin_of lhs) (lin_of rhs) | `Ge -> lin_sub (lin_of rhs) (lin_of lhs)
    in
    let xs = consolidate diff.xv and ys = consolidate diff.yv in
    match (xs, ys) with
    | _ :: _, _ :: _ ->
      err loc
        (match op with `Le -> "<=" | `Ge -> ">=")
        "comparison mixes input (X) and output (Y) variables"
    | [ (i, coeff) ], [] ->
      (* coeff·X_i + k <= 0 *)
      let bound = -.diff.k /. coeff in
      if not (Float.is_finite bound) then
        err loc (match op with `Le -> "<=" | `Ge -> ">=") "input bound is not finite";
      if coeff > 0.0 then Bound (i, `Le, bound, loc) else Bound (i, `Ge, bound, loc)
    | _ :: _ :: _, [] ->
      err loc
        (match op with `Le -> "<=" | `Ge -> ">=")
        "input constraints must bound a single X variable"
    | [], ys -> Lit (ys, diff.k, loc)
  in
  let rec form_of = function
    | List (Atom ("and", loc) :: args, _) ->
      if args = [] then err loc "and" "and takes at least one argument";
      And (List.map form_of args)
    | List (Atom ("or", loc) :: args, _) ->
      if args = [] then err loc "or" "or takes at least one argument";
      Or (List.map form_of args)
    | List ([ Atom ("<=", loc); a; b ], _) -> Leaf (compare_of loc `Le a b)
    | List ([ Atom (">=", loc); a; b ], _) -> Leaf (compare_of loc `Ge a b)
    | List (Atom (("<=" | ">=") as op, loc) :: _, _) ->
      err loc op "%s takes exactly two arguments" op
    | List (Atom (op, loc) :: _, _) ->
      err loc op "unsupported operator (expected and, or, <= or >=)"
    | List (_, loc) -> err loc "(" "expected a formula"
    | Atom (word, loc) -> err loc word "expected a formula"
  in
  (* top-level commands *)
  let asserts = ref [] in
  List.iter
    (fun form ->
      match form with
      | List (Atom ("declare-const", loc) :: rest, _) -> (
        match rest with
        | [ Atom (name, nloc); Atom ("Real", _) ] -> declare nloc name
        | _ -> err loc "declare-const" "declare-const takes a variable and the sort Real")
      | List ([ Atom ("assert", _); body ], aloc) -> asserts := (form_of body, aloc) :: !asserts
      | List (Atom ("assert", loc) :: _, _) -> err loc "assert" "assert takes exactly one formula"
      | List (Atom (cmd, loc) :: _, _) ->
        err loc cmd "unsupported command (expected declare-const or assert)"
      | List (_, loc) -> err loc "(" "expected a command"
      | Atom (word, loc) -> err loc word "expected a command")
    forms;
  let asserts = List.rev !asserts in
  let top = { l = 1; c = 1 } in
  (* the earliest-positioned declaration of an index [k] or more *)
  let first_from decl k =
    Hashtbl.fold
      (fun i loc acc ->
        match acc with
        | _ when i < k -> acc
        | Some (_, best) when (best.l, best.c) < (loc.l, loc.c) -> acc
        | _ -> Some (i, loc))
      decl None
  in
  (* The n declared indices of a kind must be exactly 0..n-1, and with
     a [network] n must be its width: the arrays below are sized by the
     count, so an index past either is reported at its first
     declaration, before anything is allocated. *)
  let count kind ~what ~width decl =
    let n = Hashtbl.length decl in
    Option.iter
      (fun m ->
        Option.iter
          (fun (i, loc) ->
            err loc (Printf.sprintf "%s_%d" kind i)
              "the network has %d %s, so %s indices run %s_0..%s_%d" m what kind kind
              kind (m - 1))
          (first_from decl m))
      width;
    Option.iter
      (fun (i, loc) ->
        err loc (Printf.sprintf "%s_%d" kind i)
          "%d %s variables are declared, so their indices must run %s_0..%s_%d without a gap"
          n kind kind kind (n - 1))
      (first_from decl n);
    Option.iter
      (fun m ->
        if n > 0 && n < m then
          err top (Printf.sprintf "%s_%d" kind n)
            "the network has %d %s but only %s_0..%s_%d are declared" m what kind kind
            (n - 1))
      width;
    n
  in
  let width f = Option.map f network in
  let num_inputs = count "X" ~what:"inputs" ~width:(width Abonn_nn.Network.input_dim) xdecl in
  let num_outputs = count "Y" ~what:"outputs" ~width:(width Abonn_nn.Network.output_dim) ydecl in
  if num_inputs = 0 then err top "X_0" "no input variables declared";
  if num_outputs = 0 then err top "Y_0" "no output variables declared";
  (* split asserts into input bounds and output constraints *)
  let rec atoms = function
    | Leaf a -> [ a ]
    | And fs | Or fs -> List.concat_map atoms fs
  in
  let rec has_or = function
    | Leaf _ -> false
    | Or _ -> true
    | And fs -> List.exists has_or fs
  in
  let lower = Array.make num_inputs None and upper = Array.make num_inputs None in
  let apply_bound = function
    | Bound (i, dir, v, _) ->
      let tighten cell pick =
        cell := Some (match !cell with None -> v | Some old -> pick old v)
      in
      (match dir with
       | `Le ->
         let cell = ref upper.(i) in
         tighten cell min;
         upper.(i) <- !cell
       | `Ge ->
         let cell = ref lower.(i) in
         tighten cell max;
         lower.(i) <- !cell)
    | Lit _ -> assert false
  in
  let output_asserts = ref [] in
  List.iter
    (fun (form, aloc) ->
      let ats = atoms form in
      let bounds, lits =
        List.partition (function Bound _ -> true | Lit _ -> false) ats
      in
      match (bounds, lits) with
      | _ :: _, [] ->
        if has_or form then
          (match List.hd bounds with
           | Bound (_, _, _, loc) | Lit (_, _, loc) ->
             err loc "or" "input bounds may not appear under (or ...)");
        List.iter apply_bound bounds
      | [], _ -> output_asserts := (form, aloc) :: !output_asserts
      | (Bound (_, _, _, loc) | Lit (_, _, loc)) :: _, _ :: _ ->
        err loc "and"
          "input bounds and output constraints may not be mixed in one assert")
    asserts;
  let output_asserts = List.rev !output_asserts in
  (match output_asserts with
   | [] -> err top "assert" "no output constraints asserted"
   | _ -> ());
  let lower =
    Array.mapi
      (fun i cell ->
        match cell with
        | Some v -> v
        | None ->
          err top (Printf.sprintf "X_%d" i) "missing lower bound for X_%d" i)
      lower
  in
  let upper =
    Array.mapi
      (fun i cell ->
        match cell with
        | Some v -> v
        | None ->
          err top (Printf.sprintf "X_%d" i) "missing upper bound for X_%d" i)
      upper
  in
  Array.iteri
    (fun i lo ->
      if lo > upper.(i) then
        err top (Printf.sprintf "X_%d" i) "empty input box: lower > upper for X_%d" i)
    lower;
  (* DNF of the conjoined output asserts, with a size guard *)
  let conj = And (List.map fst output_asserts) in
  let first_loc = snd (List.hd output_asserts) in
  let sat = max_disjuncts + 1 in
  let rec dnf_size = function
    | Leaf _ -> 1
    | Or fs -> min sat (List.fold_left (fun acc f -> acc + dnf_size f) 0 fs)
    | And fs -> min sat (List.fold_left (fun acc f -> acc * dnf_size f) 1 fs)
  in
  if dnf_size conj > max_disjuncts then
    err first_loc "or" "output constraints expand to more than %d disjuncts"
      max_disjuncts;
  let rec dnf = function
    | Leaf (Lit (ys, k, _)) -> [ [ (ys, k) ] ]
    | Leaf (Bound _) -> assert false
    | Or fs -> List.concat_map dnf fs
    | And fs ->
      List.fold_left
        (fun acc f ->
          let d = dnf f in
          List.concat_map (fun conj -> List.map (fun tail -> conj @ tail) d) acc)
        [ [] ] fs
  in
  let to_linterm (ys, k) =
    let coeffs = Array.make num_outputs 0.0 in
    List.iter (fun (i, v) -> coeffs.(i) <- v) ys;
    { coeffs; offset = k }
  in
  let disjuncts = List.map (List.map to_linterm) (dnf conj) in
  { num_inputs; num_outputs; lower; upper; disjuncts }

let load ?network path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      parse ~source:path ?network text)

(* --- pretty-printer ------------------------------------------------ *)

let float_str v = Printf.sprintf "%.17g" v

let term_str { coeffs; offset } =
  let parts =
    Array.to_list coeffs
    |> List.mapi (fun i v ->
           if v = 0.0 then None
           else Some (Printf.sprintf "(* %s Y_%d)" (float_str v) i))
    |> List.filter_map Fun.id
  in
  match parts with
  | [] -> float_str offset
  | parts -> Printf.sprintf "(+ %s %s)" (String.concat " " parts) (float_str offset)

let to_string spec =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "; VNNLIB export (abonn)";
  for i = 0 to spec.num_inputs - 1 do
    line "(declare-const X_%d Real)" i
  done;
  for i = 0 to spec.num_outputs - 1 do
    line "(declare-const Y_%d Real)" i
  done;
  line "";
  for i = 0 to spec.num_inputs - 1 do
    line "(assert (>= X_%d %s))" i (float_str spec.lower.(i));
    line "(assert (<= X_%d %s))" i (float_str spec.upper.(i))
  done;
  line "";
  let literal_str lit = Printf.sprintf "(<= %s 0.0)" (term_str lit) in
  let conj_str = function
    | [ lit ] -> literal_str lit
    | lits -> Printf.sprintf "(and %s)" (String.concat " " (List.map literal_str lits))
  in
  (match spec.disjuncts with
   | [ one ] -> line "(assert %s)" (conj_str one)
   | many ->
     line "(assert (or %s))" (String.concat " " (List.map conj_str many)));
  Buffer.contents buf

let save spec path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string spec))

(* --- lowering to problems ------------------------------------------ *)

module Layer = Abonn_nn.Layer
module Network = Abonn_nn.Network

(* t = max_i g_i where g_i = coeffs_i·y + offset_i, built from
   max(u, w) = relu(u) − relu(−u) + relu(w − u) pairwise reduction
   stages (exact, not an over-approximation). *)
let gadget_layers ~num_outputs literals =
  let k = List.length literals in
  let lits = Array.of_list literals in
  let head =
    Layer.linear
      (Matrix.init k num_outputs (fun i j -> lits.(i).coeffs.(j)))
      (Array.map (fun lit -> lit.offset) lits)
  in
  let rev_layers = ref [ head ] in
  let width = ref k in
  while !width > 1 do
    let pairs = !width / 2 and odd = !width mod 2 = 1 in
    (* pair j over inputs (2j, 2j+1): rows u, −u, w−u; odd leftover v:
       rows v, −v (so relu-then-combine reproduces v exactly) *)
    let exp_rows = (3 * pairs) + if odd then 2 else 0 in
    let expand =
      Matrix.init exp_rows !width (fun r col ->
          if r < 3 * pairs then begin
            let j = r / 3 and s = r mod 3 in
            let u = 2 * j and w = (2 * j) + 1 in
            match s with
            | 0 -> if col = u then 1.0 else 0.0
            | 1 -> if col = u then -1.0 else 0.0
            | _ -> if col = w then 1.0 else if col = u then -1.0 else 0.0
          end
          else begin
            let s = r - (3 * pairs) and v = !width - 1 in
            if col = v then (if s = 0 then 1.0 else -1.0) else 0.0
          end)
    in
    let out_rows = pairs + if odd then 1 else 0 in
    let combine =
      Matrix.init out_rows exp_rows (fun r col ->
          if r < pairs then begin
            let base = 3 * r in
            if col = base then 1.0
            else if col = base + 1 then -1.0
            else if col = base + 2 then 1.0
            else 0.0
          end
          else begin
            let base = 3 * pairs in
            if col = base then 1.0 else if col = base + 1 then -1.0 else 0.0
          end)
    in
    rev_layers :=
      Layer.linear combine (Array.make out_rows 0.0)
      :: Layer.Relu exp_rows
      :: Layer.linear expand (Array.make exp_rows 0.0)
      :: !rev_layers;
    width := out_rows
  done;
  List.rev !rev_layers

let problems ?(name = "vnnlib") ~network spec =
  let n_in = Network.input_dim network and n_out = Network.output_dim network in
  if spec.num_inputs <> n_in then
    invalid_arg
      (Printf.sprintf "Vnnlib.problems: spec has %d inputs, network expects %d"
         spec.num_inputs n_in);
  if spec.num_outputs <> n_out then
    invalid_arg
      (Printf.sprintf "Vnnlib.problems: spec has %d outputs, network has %d"
         spec.num_outputs n_out);
  let region = Region.create ~lower:spec.lower ~upper:spec.upper in
  List.mapi
    (fun i disjunct ->
      let pname = Printf.sprintf "%s#%d" name i in
      match disjunct with
      | [] -> invalid_arg "Vnnlib.problems: empty disjunct"
      | [ { coeffs; offset } ] ->
        (* ¬(c·y + k <= 0) is exactly c·y + k > 0 *)
        Problem.create ~name:pname ~network ~region
          ~property:
            (Property.single ~description:"negated VNNLIB literal" coeffs offset)
          ()
      | literals ->
        let network =
          Network.create
            (Network.layers network @ gadget_layers ~num_outputs:n_out literals)
        in
        Problem.create ~name:pname ~network ~region
          ~property:
            (Property.single ~description:"VNNLIB max-gadget: max_i g_i > 0"
               [| 1.0 |] 0.0)
          ())
    spec.disjuncts

let join_verdicts = function
  | [] -> invalid_arg "Vnnlib.join_verdicts: empty verdict list"
  | verdicts -> (
    match List.find_opt Verdict.is_falsified verdicts with
    | Some v -> v
    | None ->
      if List.for_all Verdict.is_verified verdicts then Verdict.Verified
      else Verdict.Timeout)

let of_problem (problem : Problem.t) =
  let region = problem.Problem.region in
  let prop = problem.Problem.property in
  let c = prop.Property.c in
  let disjuncts =
    List.init c.Matrix.rows (fun i ->
        [ { coeffs = Matrix.row c i; offset = prop.Property.d.(i) } ])
  in
  { num_inputs = Array.length region.Region.lower;
    num_outputs = c.Matrix.cols;
    lower = Array.copy region.Region.lower;
    upper = Array.copy region.Region.upper;
    disjuncts }
