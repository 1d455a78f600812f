let acc : Json.t list ref = ref [] (* newest first *)

let add row = acc := row :: !acc
let count () = List.length !acc
let rows () = List.rev !acc
let clear () = acc := []

let document ~schema =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("generated_by", Json.Str "ccpfs (SeqDLM reproduction)");
      ("results", Json.List (rows ())) ]

let write ~schema ~path () =
  let n = count () in
  Json.to_file path (document ~schema);
  clear ();
  n
