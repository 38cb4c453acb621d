(* Test data files are named relative to this directory.  [dune runtest]
   runs the suite inside the build copy of the directory; [dune exec
   test/test_main.exe] runs it wherever the command was issued, usually
   the repository root.  [path p] resolves [p] against this source
   file's directory when that names an existing file, and otherwise
   leaves it relative to the working directory. *)
let path p =
  let beside_source = Filename.concat (Filename.dirname __FILE__) p in
  if Sys.file_exists beside_source then beside_source else p
