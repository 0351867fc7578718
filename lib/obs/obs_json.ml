type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let fail_at pos msg = raise (Error (Printf.sprintf "%s at byte %d" msg pos))

(* UTF-8 encode one code point (the result of a \uXXXX escape; no
   surrogate-pair recombination — snapshot keys are metric names, which
   are ASCII). *)
let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = fail_at !pos msg in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected '%c', got '%c'" c c')
    | None -> fail (Printf.sprintf "expected '%c', got end of input" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail "bad hex digit in \\u escape"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' -> advance (); Buffer.add_char buf '\n'; go ()
          | Some 't' -> advance (); Buffer.add_char buf '\t'; go ()
          | Some 'r' -> advance (); Buffer.add_char buf '\r'; go ()
          | Some 'b' -> advance (); Buffer.add_char buf '\b'; go ()
          | Some 'f' -> advance (); Buffer.add_char buf '\012'; go ()
          | Some '/' -> advance (); Buffer.add_char buf '/'; go ()
          | Some '"' -> advance (); Buffer.add_char buf '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char buf '\\'; go ()
          | Some 'u' ->
              advance ();
              let cp = ref 0 in
              for _ = 1 to 4 do
                (match peek () with
                | Some c -> cp := (!cp * 16) + hex_digit c
                | None -> fail "truncated \\u escape");
                advance ()
              done;
              add_utf8 buf !cp;
              go ()
          | Some c -> fail (Printf.sprintf "bad escape '\\%c'" c)
          | None -> fail "truncated escape")
      | Some c -> advance (); Buffer.add_char buf c; go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail_at start "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}' in object"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); Arr [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']' in array"
          in
          elements []
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing content after JSON value";
  v

let escape s =
  let plain c = c <> '"' && c <> '\\' && Char.code c >= 0x20 in
  if String.for_all plain s then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let get k j =
  match member k j with
  | Some v -> v
  | None -> raise (Error ("missing member \"" ^ k ^ "\""))

let to_float = function Num f -> Some f | _ -> None

(* OCaml's int range is exactly [-2^62, 2^62): 2^62 itself would wrap
   to min_int under int_of_float. NaN fails both comparisons. *)
let to_int = function
  | Num f when f >= -4.611686018427387904e18 && f < 4.611686018427387904e18 ->
      Some (int_of_float f)
  | _ -> None

let to_string = function Str s -> Some s | _ -> None

let get_int k j =
  match to_int (get k j) with
  | Some i -> i
  | None -> raise (Error ("member \"" ^ k ^ "\" is not an integer"))

let get_obj k j =
  match get k j with
  | Obj kvs -> kvs
  | _ -> raise (Error ("member \"" ^ k ^ "\" is not an object"))
