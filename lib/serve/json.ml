(* Minimal JSON: just enough for the serve wire protocol (RFC 8259
   subset). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

let escape b s =
  Buffer.add_char b '"';
  Sink.add_escaped b s;
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool true -> Buffer.add_string b "true"
  | Bool false -> Buffer.add_string b "false"
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_char b '0'
  | Str s -> escape b s
  | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          write b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape b k;
          Buffer.add_char b ':';
          write b v)
        kvs;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 256 in
  write b j;
  Buffer.contents b

(* --- parsing: plain recursive descent over the string --- *)

exception Parse of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then fail "unexpected end of input"
    else begin
      let c = s.[!pos] in
      incr pos;
      c
    end
  in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    let g = next () in
    if g <> c then fail (Printf.sprintf "expected %c, got %c" c g)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let utf8_of_code b u =
    (* BMP only; surrogate pairs are combined by the caller *)
    if u < 0x80 then Buffer.add_char b (Char.chr u)
    else if u < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
    else if u < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (u lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
    end
  in
  let hex4 () =
    let v = ref 0 in
    for _ = 1 to 4 do
      let c = next () in
      let d =
        match c with
        | '0' .. '9' -> Char.code c - Char.code '0'
        | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match next () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              let u = hex4 () in
              if u >= 0xD800 && u <= 0xDBFF then begin
                (* high surrogate: require the low half *)
                expect '\\';
                expect 'u';
                let lo = hex4 () in
                if lo < 0xDC00 || lo > 0xDFFF then fail "lone surrogate"
                else
                  utf8_of_code b
                    (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
              end
              else if u >= 0xDC00 && u <= 0xDFFF then fail "lone surrogate"
              else utf8_of_code b u
          | _ -> fail "bad escape");
          go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let digits () =
      let d0 = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        incr pos
      done;
      if !pos = d0 then fail "bad number"
    in
    digits ();
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      incr pos;
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        incr pos;
        (match peek () with Some ('+' | '-') -> incr pos | _ -> ());
        digits ()
    | _ -> ());
    let lit = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string lit)
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> Float (float_of_string lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else
          let rec elts acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> elts (v :: acc)
            | ']' -> List (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elts []
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> members ((k, v) :: acc)
            | '}' -> Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
    | Some c -> fail (Printf.sprintf "unexpected character %c" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse (p, msg) -> Error (Printf.sprintf "at byte %d: %s" p msg)
  | exception Failure msg -> Error msg

(* --- accessors --- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function List xs -> Some xs | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
