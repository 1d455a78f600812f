let acc : Json.t list ref = ref [] (* newest first *)

let add row = acc := row :: !acc
let count () = List.length !acc
let rows () = List.rev !acc
let clear () = acc := []

let generated_by = "ccpfs (SeqDLM reproduction)"

let document ~schema =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("generated_by", Json.Str generated_by);
      ("results", Json.List (rows ())) ]

(* The same document as [document], laid out with the header on the
   first line and one row per line, so a diff of a committed document
   names the row that moved. *)
let write ~schema ~path () =
  let n = count () in
  let str s = Json.to_string (Json.Str s) in
  let oc = open_out path in
  Printf.fprintf oc "{\"schema\":%s,\"generated_by\":%s,\"results\":["
    (str schema) (str generated_by);
  List.iteri
    (fun i row ->
      output_string oc (if i = 0 then "\n" else ",\n");
      output_string oc (Json.to_string row))
    (rows ());
  output_string oc "\n]}\n";
  close_out oc;
  clear ();
  n
