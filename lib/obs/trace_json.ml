(* Hand-rolled JSON emission shared by the sinks, metrics, status and
   run files (the repo deliberately has no JSON dependency). Only what
   we need: strings and floats. *)

let escape buf s =
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

let float buf f =
  if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
    (* NaN/inf are not JSON; clamp to null. *)
    Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else Buffer.add_string buf (Printf.sprintf "%.17g" f)
