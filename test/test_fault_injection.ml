(* The fault-injection harness: every case in the Inject module's
   corpus must either return a typed error or a finite documented
   fallback — never an uncaught exception, never a NaN.  Each corpus
   case becomes its own alcotest case so a regression names the exact
   malformed input that broke. *)

let test_of_case c () =
  let outcome = Inject.run_case c in
  match Inject.verdict c outcome with
  | Inject.Pass -> ()
  | Inject.Fail msg -> Alcotest.failf "%s: %s" c.Inject.name msg

let test_corpus_size () =
  (* The acceptance bar: a systematic corpus, not a token one. *)
  let n = List.length (Inject.corpus ()) in
  if n < 25 then Alcotest.failf "corpus has only %d cases (need >= 25)" n

let test_no_case_escapes () =
  (* Belt and braces over the per-case tests: one sweep asserting the
     global invariant directly. *)
  let results = Inject.run_all () in
  match Inject.failures results with
  | [] -> ()
  | (c, _, msg) :: _ as fails ->
      Alcotest.failf "%d corpus failure(s); first: %s: %s"
        (List.length fails) c.Inject.name msg

let suite =
  Helpers.quick "corpus size >= 25" test_corpus_size
  :: Helpers.quick "no case escapes" test_no_case_escapes
  :: List.map
       (fun c -> Helpers.quick c.Inject.name (test_of_case c))
       (Inject.corpus ())
