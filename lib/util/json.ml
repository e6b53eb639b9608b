type t =
  | Obj of (string * t) list
  | Arr of t list
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool
  | Null

(* --- reading --- *)

(* Raised at a byte offset; [of_string] turns it into a positioned
   [Parse_error] once, so the hot path never counts lines. *)
exception Fail of int * string * string

let of_string ?(source = "<string>") ?(line = 1) s =
  let n = String.length s in
  let pos = ref 0 in
  let fail ?(at = !pos) ?(token = "") msg = raise (Fail (at, token, msg)) in
  (* '\000' past the end: no caller matches it, and every branch that
     could accept it checks the bound first *)
  let peek () = if !pos < n then String.unsafe_get s !pos else '\000' in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> incr pos; skip_ws () | _ -> ()
  in
  (* the grammar needs [what] where [pos] is *)
  let unexpected what =
    if !pos >= n then fail "unexpected end of input"
    else fail ~token:(String.make 1 s.[!pos]) ("expected " ^ what)
  in
  let hex4 at =
    if at + 4 > n then fail ~at "truncated \\u escape";
    let code = ref 0 in
    for i = at to at + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail ~at:(at - 2) ~token:(String.sub s (at - 2) 6) "bad \\u escape"
      in
      code := (!code * 16) + d
    done;
    !code
  in
  let parse_string () =
    (* at the opening quote; strings without escapes are one [sub] *)
    let start = !pos + 1 in
    let rec plain i =
      if i >= n then fail ~at:n "unterminated string"
      else
        match String.unsafe_get s i with
        | '"' -> pos := i + 1; String.sub s start (i - start)
        | '\\' ->
          let buf = Buffer.create (i - start + 16) in
          Buffer.add_substring buf s start (i - start);
          escaped buf i
        | _ -> plain (i + 1)
    and escaped buf i =
      if i >= n then fail ~at:n "unterminated string"
      else
        match s.[i] with
        | '"' -> pos := i + 1; Buffer.contents buf
        | '\\' when i + 1 >= n -> fail ~at:n "unterminated string"
        | '\\' ->
          let next =
            match s.[i + 1] with
            | ('"' | '\\' | '/') as c -> Buffer.add_char buf c; i + 2
            | 'b' -> Buffer.add_char buf '\b'; i + 2
            | 'f' -> Buffer.add_char buf '\012'; i + 2
            | 'n' -> Buffer.add_char buf '\n'; i + 2
            | 'r' -> Buffer.add_char buf '\r'; i + 2
            | 't' -> Buffer.add_char buf '\t'; i + 2
            | 'u' ->
              (* a UTF-16 surrogate pair spells one code point *)
              let hi = hex4 (i + 2) in
              let lo =
                if hi land 0xFC00 = 0xD800 && i + 7 < n && s.[i + 6] = '\\'
                   && s.[i + 7] = 'u'
                then hex4 (i + 8)
                else 0
              in
              let code, next =
                if lo land 0xFC00 = 0xDC00 then
                  (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00), i + 12)
                else (hi, i + 6)
              in
              if code land 0xF800 = 0xD800 then
                fail ~at:i ~token:(String.sub s i 6) "lone surrogate";
              Buffer.add_utf_8_uchar buf (Uchar.of_int code);
              next
            | c -> fail ~at:i ~token:(Printf.sprintf "\\%c" c) "bad escape"
          in
          escaped buf next
        | c -> Buffer.add_char buf c; escaped buf (i + 1)
    in
    plain start
  in
  let parse_number () =
    let start = !pos and integral = ref true in
    let rec scan () =
      match peek () with
      | '0' .. '9' | '-' | '+' -> incr pos; scan ()
      | '.' | 'e' | 'E' -> integral := false; incr pos; scan ()
      | _ -> ()
    in
    scan ();
    let text = String.sub s start (!pos - start) in
    let as_float () =
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail ~at:start ~token:text "bad number"
    in
    if not !integral then as_float ()
    else match int_of_string_opt text with Some i -> Int i | None -> as_float ()
  in
  let literal word v =
    let start = !pos in
    while (match peek () with 'a' .. 'z' -> true | _ -> false) do incr pos done;
    let got = String.sub s start (!pos - start) in
    if got = word then v else fail ~at:start ~token:got "invalid literal"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec members acc =
          skip_ws ();
          if peek () <> '"' then unexpected "a string key";
          let key = parse_string () in
          skip_ws ();
          if peek () <> ':' then unexpected "':'";
          incr pos;
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; members ((key, v) :: acc)
          | '}' -> incr pos; Obj (List.rev ((key, v) :: acc))
          | _ -> unexpected "',' or '}'"
        in
        members []
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec elements acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' -> incr pos; elements (v :: acc)
          | ']' -> incr pos; Arr (List.rev (v :: acc))
          | _ -> unexpected "',' or ']'"
        in
        elements []
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | _ -> unexpected "a value"
  in
  try
    let v = value () in
    skip_ws ();
    if !pos < n then unexpected "the end of input";
    v
  with Fail (at, token, msg) ->
    let line_no = ref line and bol = ref 0 in
    for i = 0 to Stdlib.min at n - 1 do
      if s.[i] = '\n' then (incr line_no; bol := i + 1)
    done;
    raise
      (Parse_error.Error
         { source; pos = Line { line = !line_no; col = at - !bol + 1 }; token; msg })

(* --- access --- *)

let member k = function Obj ms -> List.assoc_opt k ms | _ -> None
let as_string = function Str s -> Some s | _ -> None
let as_int = function Int i -> Some i | _ -> None
let as_bool = function Bool b -> Some b | _ -> None

let as_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | Str "nan" -> Some Float.nan
  | Str "inf" -> Some Float.infinity
  | Str "-inf" -> Some Float.neg_infinity
  | _ -> None

(* --- writing --- *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no literal for non-finite floats; they travel as strings. *)
let add_float buf v =
  if Float.is_nan v then Buffer.add_string buf "\"nan\""
  else if v = Float.infinity then Buffer.add_string buf "\"inf\""
  else if v = Float.neg_infinity then Buffer.add_string buf "\"-inf\""
  else Buffer.add_string buf (Printf.sprintf "%.17g" v)

let rec add buf = function
  | Obj ms ->
    Buffer.add_char buf '{';
    List.iteri (fun i m -> if i > 0 then Buffer.add_char buf ','; add_member buf m) ms;
    Buffer.add_char buf '}'
  | Arr vs ->
    Buffer.add_char buf '[';
    List.iteri (fun i v -> if i > 0 then Buffer.add_char buf ','; add buf v) vs;
    Buffer.add_char buf ']'
  | Str s -> add_string buf s
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Null -> Buffer.add_string buf "null"

and add_member buf (k, v) =
  add_string buf k;
  Buffer.add_char buf ':';
  add buf v

let add_members buf = List.iter (fun m -> Buffer.add_char buf ','; add_member buf m)

let to_string v =
  let buf = Buffer.create 64 in
  add buf v;
  Buffer.contents buf
