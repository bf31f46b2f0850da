type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* One node per int in [-1, 1023], the ids, indices and counts that
   fill most of a document (86% of the ints [parse] reads in a flow
   trace); a tree is immutable, so sharing them is invisible. *)
let small_ints = Array.init 1025 (fun i -> Int (i - 1))

let int n = if n >= -1 && n < 1024 then Array.unsafe_get small_ints (n + 1) else Int n

(* ---------- serializer ---------- *)

(* Runs of bytes that need no escape are copied whole. *)
let escape buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || c < ' ' then begin
      Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    end
  done;
  Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

(* What [Printf.sprintf "%.12g"] and ["%.17g"] end in, without the
   format interpretation around it. *)
external format_float : string -> float -> string = "caml_format_float"

(* The text of a finite float: the shortest representation that
   round-trips; %.17g always does, but prefer the readable %.12g form
   when it is exact.  An integral value under 1e12 has at most 12
   digits, so %.12g prints it exactly as [string_of_int] does; -0.0 is
   the one integral value whose text ("-0") is not its [int]'s. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e12 && not (f = 0.0 && Float.sign_bit f)
  then string_of_int (int_of_float f)
  else
    let s = format_float "%.12g" f in
    if float_of_string s = f then s else format_float "%.17g" f

(* Float text is memoised per [to_string] call in a 16-entry
   direct-mapped table, a slot per value of a multiplicative hash's top
   4 bits: consecutive flight events repeat their [sim_t].  The key is
   the bit pattern, not [=]: 0.0 and -0.0 share a slot and are equal,
   but print differently.  Empty slots hold a NaN, which no memoised
   (finite) float matches. *)
let memo_slot bits = (Int64.to_int bits * 0x2545F4914F6CDD1D) lsr 59

let spaces = String.make 64 ' '

(* [string_of_int n]'s bytes, written straight into [buf] through the
   20-byte [scratch] (min_int has 19 digits and a sign). *)
let add_int buf scratch n =
  if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    let i = ref 20 and m = ref (abs n) in
    while
      decr i;
      Bytes.unsafe_set scratch !i (Char.unsafe_chr (48 + (!m mod 10)));
      m := !m / 10;
      !m > 0
    do
      ()
    done;
    if n < 0 then Buffer.add_char buf '-';
    Buffer.add_subbytes buf scratch !i (20 - !i)
  end

let to_string t =
  let buf = Buffer.create 1024 in
  let memo_keys = Array.make 16 Float.nan in
  let memo_text = Array.make 16 "" in
  let scratch = Bytes.create 20 in
  let float f =
    if not (Float.is_finite f) then "null"
    else
      let bits = Int64.bits_of_float f in
      let i = memo_slot bits in
      if Int64.equal (Int64.bits_of_float memo_keys.(i)) bits then memo_text.(i)
      else begin
        let s = float_repr f in
        memo_keys.(i) <- f;
        memo_text.(i) <- s;
        s
      end
  in
  let rec indent_by k =
    let m = min k (String.length spaces) in
    Buffer.add_substring buf spaces 0 m;
    if k > m then indent_by (k - m)
  in
  let nl indent =
    Buffer.add_char buf '\n';
    indent_by indent
  in
  let rec go indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> add_int buf scratch n
    | Float f -> Buffer.add_string buf (float f)
    | Str s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 2);
          go (indent + 2) x)
        xs;
      nl indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (indent + 2);
          escape buf k;
          Buffer.add_string buf ": ";
          go (indent + 2) v)
        fields;
      nl indent;
      Buffer.add_char buf '}'
  in
  go 0 t;
  Buffer.contents buf

(* Write-to-temp + rename: a crashed or watchdogged run can leave a
   stale [.tmp] behind but never a truncated artifact at [path]. *)
let to_file path t =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  (match
     output_string oc (to_string t);
     output_char oc '\n'
   with
  | () -> close_out oc
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  Sys.rename tmp path

(* ---------- parser ---------- *)

exception Bad of int * string

let hex_digit = function
  | '0' .. '9' as c -> Char.code c - 48
  | 'a' .. 'f' as c -> Char.code c - 87
  | 'A' .. 'F' as c -> Char.code c - 55
  | _ -> -1

let is_num_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* Whether [s] holds [sub] at byte [start]. *)
let holds_at s start sub =
  let m = String.length sub in
  start + m <= String.length s
  &&
  let i = ref 0 in
  while !i < m && String.unsafe_get s (start + !i) = String.unsafe_get sub !i do
    incr i
  done;
  !i = m

(* Every [fail] reports the byte offset [pos] holds at that moment. *)
let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let at c = !pos < n && String.unsafe_get s !pos = c in
  (* Scans run on a local index, which stays in a register. *)
  let skip_ws () =
    let i = ref !pos in
    while !i < n && is_ws (String.unsafe_get s !i) do
      incr i
    done;
    pos := !i
  in
  let expect c = if at c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word value =
    if holds_at s !pos word then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* The rest of a string from [pos], once it has an escape. *)
  let rec escaped buf =
    if !pos >= n then fail "unterminated string"
    else
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> begin
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let d k = hex_digit s.[!pos + k] in
          let d0 = d 0 and d1 = d 1 and d2 = d 2 and d3 = d 3 in
          pos := !pos + 4;
          if d0 lor d1 lor d2 lor d3 < 0 then fail "bad \\u escape";
          let code = (d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3 in
          (* Encode the code point as UTF-8; surrogate halves are
             stored as-is (we never emit them). *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | _ -> fail "bad escape");
        escaped buf
      end
      | c ->
        Buffer.add_char buf c;
        escaped buf
  in
  (* A string without escapes is one [String.sub]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = ref start in
    while
      !stop < n && String.unsafe_get s !stop <> '"' && String.unsafe_get s !stop <> '\\'
    do
      incr stop
    done;
    pos := !stop;
    if at '"' then begin
      incr pos;
      String.sub s start (!stop - start)
    end
    else begin
      let buf = Buffer.create (!stop - start + 16) in
      Buffer.add_substring buf s start (!stop - start);
      escaped buf
    end
  in
  (* The last float lexeme and its node: consecutive records repeat
     their timestamps. *)
  let last_lexeme = ref "" and last_float = ref Null in
  let parse_number () =
    let start = !pos in
    let stop = ref start and floaty = ref false in
    while !stop < n && is_num_char (String.unsafe_get s !stop) do
      (match String.unsafe_get s !stop with
      | '.' | 'e' | 'E' -> floaty := true
      | _ -> ());
      incr stop
    done;
    pos := !stop;
    let len = !stop - start in
    if !floaty then begin
      if not (String.length !last_lexeme = len && holds_at s start !last_lexeme) then begin
        let lexeme = String.sub s start len in
        match float_of_string_opt lexeme with
        | Some f ->
          last_lexeme := lexeme;
          last_float := Float f
        | None -> fail "bad number"
      end;
      !last_float
    end
    else begin
      (* Up to 18 digits cannot overflow an [int]; anything else (a
         stray sign, more digits) goes to [int_of_string_opt]. *)
      let first = if s.[start] = '-' then start + 1 else start in
      let acc = ref 0 and i = ref first in
      while !i < !stop && is_digit (String.unsafe_get s !i) do
        acc := (10 * !acc) + Char.code (String.unsafe_get s !i) - 48;
        incr i
      done;
      if !i = !stop && !stop > first && !stop - first <= 18 then
        int (if first > start then - !acc else !acc)
      else
        match int_of_string_opt (String.sub s start len) with
        | Some i -> Int i
        | None -> fail "bad number"
    end
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | '{' ->
      incr pos;
      skip_ws ();
      if at '}' then begin
        incr pos;
        Obj []
      end
      else begin
        (* Built in order by [@tail_mod_cons], so nothing is reversed;
           the loops raise [Bad] themselves, since a call to [fail] in
           their tail would not be a tail call. *)
        let[@tail_mod_cons] rec fields () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          if at ',' then begin
            incr pos;
            (k, v) :: fields ()
          end
          else if at '}' then begin
            incr pos;
            [ (k, v) ]
          end
          else raise (Bad (!pos, "expected ',' or '}'"))
        in
        Obj (fields ())
      end
    | '[' ->
      incr pos;
      skip_ws ();
      if at ']' then begin
        incr pos;
        List []
      end
      else begin
        let[@tail_mod_cons] rec elems () =
          let v = parse_value () in
          skip_ws ();
          if at ',' then begin
            incr pos;
            v :: elems ()
          end
          else if at ']' then begin
            incr pos;
            [ v ]
          end
          else raise (Bad (!pos, "expected ',' or ']'"))
        in
        List (elems ())
      end
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad (at, msg) ->
    Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

(* ---------- accessors ---------- *)

(* [String.equal], not [List.assoc_opt]'s polymorphic [compare]. *)
let member key = function
  | Obj fields ->
    let rec find = function
      | [] -> None
      | (k, v) :: rest -> if String.equal k key then Some v else find rest
    in
    find fields
  | _ -> None

(* [int_of_float] is unspecified outside [min_int, max_int]: -2^62 is
   [min_int] exactly, 2^62 is one past [max_int]. *)
let to_int = function
  | Int n -> Some n
  | Float f when f >= -0x1p62 && f < 0x1p62 ->
    let n = int_of_float f in
    if float_of_int n = f then Some n else None
  | _ -> None

let to_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function List xs -> Some xs | _ -> None
let to_bool = function Bool b -> Some b | _ -> None

(* ---------- decoders ---------- *)

let ( let* ) = Result.bind

let field name extract node =
  match member name node with
  | None -> Error (Printf.sprintf "missing field %S" name)
  | Some v -> (
    match extract v with
    | Some x -> Ok x
    | None -> Error (Printf.sprintf "field %S has the wrong type" name))

let list decode xs =
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* y = decode x in
      Ok (y :: acc))
    (Ok []) xs
  |> Result.map List.rev

(* ---------- files ---------- *)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        (* a directory opens, then fails to seek with EOVERFLOW *)
        if Sys.is_directory path then
          raise (Sys_error (path ^ ": Is a directory"));
        really_input_string ic (in_channel_length ic))
  with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg
