module Matrix = Abonn_tensor.Matrix
module Parse_error = Abonn_util.Parse_error

let floats_to_line arr =
  String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") arr))

let to_string (problem : Problem.t) ~network_ref =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "abonn-problem 1\n";
  Buffer.add_string buf (Printf.sprintf "network %s\n" network_ref);
  let region = problem.Problem.region in
  Buffer.add_string buf ("box-lower " ^ floats_to_line region.Region.lower ^ "\n");
  Buffer.add_string buf ("box-upper " ^ floats_to_line region.Region.upper ^ "\n");
  let prop = problem.Problem.property in
  for r = 0 to prop.Property.c.Matrix.rows - 1 do
    let row = Matrix.row prop.Property.c r in
    Buffer.add_string buf
      (Printf.sprintf "constraint %h %s\n" prop.Property.d.(r) (floats_to_line row))
  done;
  Buffer.contents buf

(* A directive kept until the whole file is read: its name, position
   and value words (with their columns), so checks that need the
   network (shapes, empty boxes) still report the offending line. *)
type 'a directive = {
  name : string;
  line : int;
  col : int;
  words : (string * int) list;
  v : 'a;
}

type partial = {
  mutable network : string directive option;
  mutable lower : float array directive option;
  mutable upper : float array directive option;
  mutable center : float array directive option;
  mutable eps : float option;
  mutable clip : (float * float) option;
  mutable robustness : (int * int) directive option;
  mutable constraints : (float * float array) directive list;  (* reversed *)
}

(* Words of [line] with their 1-based starting columns. *)
let words_with_cols line =
  let n = String.length line in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && (line.[!i] = ' ' || line.[!i] = '\t') do incr i done;
    if !i < n then begin
      let start = !i in
      while !i < n && line.[!i] <> ' ' && line.[!i] <> '\t' do incr i done;
      out := (String.sub line start (!i - start), start + 1) :: !out
    end
  done;
  List.rev !out

let of_string ?(dir = ".") ?(source = "<string>") text =
  let err ~line ~col ~token fmt =
    Parse_error.error ~source ~pos:(Parse_error.Line { line; col }) ~token fmt
  in
  let float_of ~line (w, col) =
    match float_of_string_opt w with
    | Some f when Float.is_finite f -> f
    | Some _ -> err ~line ~col ~token:w "expected a finite number"
    | None -> err ~line ~col ~token:w "expected a float"
  in
  let int_of ~line (w, col) =
    match int_of_string_opt w with
    | Some i -> i
    | None -> err ~line ~col ~token:w "expected an integer"
  in
  let floats_of ~line ws = Array.of_list (List.map (float_of ~line) ws) in
  let directive (name, col) ~line words v = { name; line; col; words; v } in
  let vector d ~line ws = Some (directive d ~line ws (floats_of ~line ws)) in
  let p =
    { network = None; lower = None; upper = None; center = None; eps = None;
      clip = None; robustness = None; constraints = [] }
  in
  let raw_lines = String.split_on_char '\n' text in
  let seen_header = ref false in
  List.iteri
    (fun idx raw ->
      let line = idx + 1 in
      let trimmed = String.trim raw in
      if trimmed <> "" && trimmed.[0] <> '#' then begin
        let ws = words_with_cols raw in
        if not !seen_header then begin
          match ws with
          | [ ("abonn-problem", _); ("1", _) ] -> seen_header := true
          | (w, col) :: _ ->
            err ~line ~col ~token:w "expected 'abonn-problem 1' header"
          | [] -> assert false
        end
        else begin
          match ws with
          | (("network", col) as d) :: rest -> (
            match rest with
            | [ (path, _) ] -> p.network <- Some (directive d ~line rest path)
            | _ -> err ~line ~col ~token:"network" "network takes exactly one path")
          | (("box-lower", _) as d) :: rest -> p.lower <- vector d ~line rest
          | (("box-upper", _) as d) :: rest -> p.upper <- vector d ~line rest
          | (("center", _) as d) :: rest -> p.center <- vector d ~line rest
          | [ ("eps", _); ((w, col) as v) ] ->
            let eps = float_of ~line v in
            if eps < 0.0 then err ~line ~col ~token:w "eps must be non-negative";
            p.eps <- Some eps
          | [ ("clip", col); a; b ] ->
            let lo = float_of ~line a and hi = float_of ~line b in
            if lo > hi then err ~line ~col ~token:"clip" "clip range is empty";
            p.clip <- Some (lo, hi)
          | [ (("robustness", _) as d); classes; label ] ->
            p.robustness <-
              Some
                (directive d ~line [ classes; label ]
                   (int_of ~line classes, int_of ~line label))
          | (("constraint", col) as d) :: rest -> (
            match rest with
            | offset :: coefs when coefs <> [] ->
              p.constraints <-
                directive d ~line rest (float_of ~line offset, floats_of ~line coefs)
                :: p.constraints
            | _ ->
              err ~line ~col ~token:"constraint"
                "constraint takes an offset followed by coefficients")
          | ("eps", col) :: _ -> err ~line ~col ~token:"eps" "eps takes exactly one value"
          | ("clip", col) :: _ ->
            err ~line ~col ~token:"clip" "clip takes exactly two values"
          | ("robustness", col) :: _ ->
            err ~line ~col ~token:"robustness" "robustness takes num_classes and label"
          | (w, col) :: _ -> err ~line ~col ~token:w "unknown directive"
          | [] -> assert false
        end
      end)
    raw_lines;
  if not !seen_header then
    err ~line:1 ~col:1 ~token:"" "missing 'abonn-problem 1' header";
  let network_dir =
    match p.network with
    | Some d -> d
    | None -> err ~line:1 ~col:1 ~token:"" "missing network directive"
  in
  let network_path =
    let path = network_dir.v in
    if Filename.is_relative path then Filename.concat dir path else path
  in
  (* a missing file fails at the directive; a malformed one raises the
     ONNX reader's own error, positioned in the network file *)
  let network =
    match Abonn_nn.Onnx.load network_path with
    | net -> net
    | exception Sys_error msg ->
      err ~line:network_dir.line ~col:network_dir.col ~token:network_dir.v
        "cannot load network: %s" msg
  in
  let at d fmt = err ~line:d.line ~col:d.col ~token:d.name fmt in
  (* the [i]-th value word of a directive *)
  let at_value d i fmt =
    let w, col = List.nth d.words i in
    err ~line:d.line ~col ~token:w fmt
  in
  let n_in = Abonn_nn.Network.input_dim network in
  let n_out = Abonn_nn.Network.output_dim network in
  let check_inputs d =
    let k = Array.length d.v in
    if k <> n_in then at d "%s has %d values, the network has %d inputs" d.name k n_in
  in
  let region =
    match p.lower, p.upper, p.center, p.eps with
    | Some lower, Some upper, None, None ->
      check_inputs lower;
      check_inputs upper;
      Array.iteri
        (fun i lo ->
          if lo > upper.v.(i) then
            at_value lower i "empty box: box-lower exceeds box-upper %s at input %d"
              (fst (List.nth upper.words i)) i)
        lower.v;
      Region.create ~lower:lower.v ~upper:upper.v
    | None, None, Some center, Some eps ->
      check_inputs center;
      Option.iter
        (fun (lo, hi) ->
          Array.iteri
            (fun i c ->
              if c +. eps < lo || c -. eps > hi then
                at_value center i "empty box: center is more than eps outside clip")
            center.v)
        p.clip;
      Region.linf_ball ?clip:p.clip ~center:center.v ~eps ()
    | _ ->
      err ~line:1 ~col:1 ~token:""
        "give either box-lower/box-upper or center/eps (not a mixture)"
  in
  let property =
    match p.robustness, List.rev p.constraints with
    | Some r, [] ->
      let num_classes, label = r.v in
      if num_classes <> n_out || num_classes < 2 then
        at r "robustness names %d classes, the network has %d outputs (need >= 2)"
          num_classes n_out;
      if label < 0 || label >= num_classes then at_value r 1 "label out of range";
      Property.robustness ~num_classes ~label
    | None, ((_ :: _) as rows) ->
      List.iter
        (fun d ->
          let k = Array.length (snd d.v) in
          if k <> n_out then
            at d "constraint has %d coefficients, the network has %d outputs" k n_out)
        rows;
      let rows = Array.of_list (List.map (fun d -> d.v) rows) in
      let c = Matrix.init (Array.length rows) n_out (fun i j -> (snd rows.(i)).(j)) in
      Property.create ~description:"from problem file" c (Array.map fst rows)
    | Some _, _ :: _ ->
      err ~line:1 ~col:1 ~token:"" "robustness and constraint are exclusive"
    | None, [] -> err ~line:1 ~col:1 ~token:"" "missing property"
  in
  Problem.create ~name:"problem-file" ~network ~region ~property ()

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      of_string ~dir:(Filename.dirname path) ~source:path text)

let save problem ~network_path path =
  Abonn_nn.Onnx.save problem.Problem.network network_path;
  let dir = Filename.dirname path in
  let network_ref =
    (* store relative when the network sits in the same directory *)
    if Filename.dirname network_path = dir then Filename.basename network_path
    else network_path
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string problem ~network_ref))
