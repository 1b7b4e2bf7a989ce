(* The sertool binary that the daemon tests start, named by SERTOOL_EXE:
   test/dune sets it under dune runtest, and a direct run from the
   repository root sets it to _build/default/bin/sertool.exe. Unset or
   missing is an error, never a skip. *)
let path =
  lazy
    (match Sys.getenv_opt "SERTOOL_EXE" with
    | None -> failwith "SERTOOL_EXE is not set; it must name the sertool binary"
    | Some p when not (Sys.file_exists p) ->
      failwith (Printf.sprintf "SERTOOL_EXE=%S does not exist" p)
    | Some p ->
      if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p)

let get () = Lazy.force path
