(* Exact allocation counts for the tests' allocation gates.

   Arrays past the minor-heap size limit go straight to the major heap,
   so [Gc.minor_words] alone misses them.  The count is minor + major -
   promoted, read after a minor collection, which brings the counters up
   to date and makes them exact in native code.  It does not depend on
   the minor-heap size ([OCAMLRUNPARAM=s=...]). *)

let words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Words allocated by [f ()]. *)
let words_of f =
  let before = words () in
  ignore (Sys.opaque_identity (f ()));
  words () -. before
