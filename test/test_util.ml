(* Unit + property tests for the bit/field substrate. *)

let qtest = QCheck_alcotest.to_alcotest

(* ---- Bits ---------------------------------------------------------- *)

let test_bits_roundtrip () =
  for width = 1 to 20 do
    let v = (1 lsl width) - 1 in
    Alcotest.(check int) "max value" v Bits.(to_int (of_int ~width v));
    Alcotest.(check int) "zero" 0 Bits.(to_int (of_int ~width 0))
  done

let test_bits_get () =
  let b = Bits.of_string "10110" in
  Alcotest.(check bool) "bit 0" true (Bits.get b 0);
  Alcotest.(check bool) "bit 1" false (Bits.get b 1);
  Alcotest.(check bool) "bit 2" true (Bits.get b 2);
  Alcotest.(check int) "length" 5 (Bits.length b)

let test_bits_append () =
  let a = Bits.of_string "101" and b = Bits.of_string "0011" in
  Alcotest.(check string) "append" "1010011" (Bits.to_string (Bits.append a b));
  Alcotest.(check string) "concat" "1010011101" (Bits.to_string (Bits.concat [ a; b; a ]))

let test_bits_sub () =
  let b = Bits.of_string "110010111" in
  Alcotest.(check string) "sub" "0010" (Bits.to_string (Bits.sub b ~pos:2 ~len:4))

let test_bits_writer_reader () =
  let w = Bits.Writer.create () in
  Bits.Writer.int w ~width:7 93;
  Bits.Writer.bool w true;
  Bits.Writer.int w ~width:3 5;
  let r = Bits.Reader.of_bits (Bits.Writer.contents w) in
  Alcotest.(check int) "int field" 93 (Bits.Reader.int r ~width:7);
  Alcotest.(check bool) "bool field" true (Bits.Reader.bool r);
  Alcotest.(check int) "second int" 5 (Bits.Reader.int r ~width:3);
  Alcotest.(check int) "drained" 0 (Bits.Reader.remaining r)

let test_bits_reader_underflow () =
  let r = Bits.Reader.of_bits (Bits.of_string "10") in
  Alcotest.check_raises "underflow" Bits.Reader.Underflow (fun () ->
      ignore (Bits.Reader.int r ~width:3))

let test_bits_range_errors () =
  (* the checked accessors name the offending index/slice and the length *)
  let b = Bits.of_string "10110" in
  Alcotest.check_raises "get past the end"
    (Invalid_argument "Bits.get: index 5 out of range [0, 5)")
    (fun () -> ignore (Bits.get b 5));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Bits.get: index -1 out of range [0, 5)")
    (fun () -> ignore (Bits.get b (-1)));
  Alcotest.check_raises "slice past the end"
    (Invalid_argument "Bits.sub: slice [3, 3+4) out of range for length 5")
    (fun () -> ignore (Bits.sub b ~pos:3 ~len:4));
  Alcotest.check_raises "negative slice position"
    (Invalid_argument "Bits.sub: slice [-1, -1+2) out of range for length 5")
    (fun () -> ignore (Bits.sub b ~pos:(-1) ~len:2))

let test_bits_flat_range_errors () =
  (* the flat reader keeps the named-index error convention of the checked
     Bits accessors: same [pos, pos+len) slice format, same length report *)
  let b = Bits.of_string "10110" in
  Alcotest.check_raises "flat slice past the end"
    (Invalid_argument "Bits_flat.read_int: slice [3, 3+4) out of range for length 5")
    (fun () -> ignore (Bits_flat.read_int b ~pos:3 ~width:4));
  Alcotest.check_raises "flat negative slice position"
    (Invalid_argument "Bits_flat.read_int: slice [-1, -1+2) out of range for length 5")
    (fun () -> ignore (Bits_flat.read_int b ~pos:(-1) ~width:2));
  (* both cursor backends fail the same way *)
  List.iter
    (fun (name, codec) ->
      let d = Bits_flat.Dec.of_bits codec b in
      Alcotest.check_raises (name ^ " decoder underflow is Reader.Underflow") Bits.Reader.Underflow
        (fun () -> ignore (Bits_flat.Dec.int d ~width:6));
      (* same terse convention as Bits.of_int, whose encoder these mirror *)
      Alcotest.check_raises (name ^ " encoder width validation")
        (Invalid_argument "Bits_flat.Enc.int: width")
        (fun () -> ignore (Bits_flat.Enc.int (Bits_flat.Enc.create codec 8) ~width:63 1));
      Alcotest.check_raises (name ^ " encoder value validation")
        (Invalid_argument "Bits_flat.Enc.int: value")
        (fun () -> ignore (Bits_flat.Enc.int (Bits_flat.Enc.create codec 8) ~width:2 4)))
    [ ("flat", Bits_flat.Flat); ("checked", Bits_flat.Checked) ]

let test_bits_flat_agrees_with_checked () =
  (* in range, the flat reader agrees with the checked Reader bit for bit *)
  let w = Bits.Writer.create () in
  Bits.Writer.int w ~width:7 93;
  Bits.Writer.bool w true;
  Bits.Writer.int w ~width:3 5;
  let b = Bits.Writer.contents w in
  Alcotest.(check int) "read_int at 0" 93 (Bits_flat.read_int b ~pos:0 ~width:7);
  Alcotest.(check int) "read_int mid" 5 (Bits_flat.read_int b ~pos:8 ~width:3);
  Alcotest.(check int) "unsafe_int agrees in range" (Bits_flat.read_int b ~pos:1 ~width:9)
    (Bits_flat.unsafe_int b ~pos:1 ~width:9);
  let d = Bits_flat.Dec.of_bits Bits_flat.Flat b in
  Alcotest.(check int) "dec int" 93 (Bits_flat.Dec.int d ~width:7);
  Alcotest.(check bool) "dec bool" true (Bits_flat.Dec.bool d);
  Alcotest.(check int) "dec second int" 5 (Bits_flat.Dec.int d ~width:3);
  Alcotest.(check int) "dec drained" 0 (Bits_flat.Dec.remaining d)

let test_bits_flat_capacity_reuse () =
  (* [?capacity] preallocates ahead of the per-label hint; reset-reuse on a
     preallocated encoder must produce exactly what a fresh exact-size
     encoder produces, both under and over the hint *)
  let encode enc fields =
    List.iter (fun (width, v) -> Bits_flat.Enc.int enc ~width v) fields;
    Bits_flat.Enc.to_bits enc
  in
  let fresh fields =
    encode (Bits_flat.Enc.create Bits_flat.Flat (List.fold_left (fun a (w, _) -> a + w) 0 fields)) fields
  in
  let small = [ (3, 5); (1, 1) ] in
  let large = [ (30, 12345); (30, 999_999); (30, 7) ] in
  let e = Bits_flat.Enc.create Bits_flat.Flat ~capacity:256 4 in
  Alcotest.(check bool) "preallocated encoder, small label" true
    (Bits.equal (fresh small) (encode e small));
  Bits_flat.Enc.reset e;
  Alcotest.(check bool) "reset-reuse past the hint stays within capacity" true
    (Bits.equal (fresh large) (encode e large));
  Bits_flat.Enc.reset e;
  Alcotest.(check bool) "reset-reuse back to a small label leaks nothing" true
    (Bits.equal (fresh small) (encode e small));
  (* capacity smaller than the hint is inert, and overflowing both still
     grows transparently *)
  let tiny = Bits_flat.Enc.create Bits_flat.Flat ~capacity:1 2 in
  Alcotest.(check bool) "growth past hint and capacity" true
    (Bits.equal (fresh large) (encode tiny large))

let test_bits_unsafe_sub () =
  (* in range, unsafe_sub agrees with sub; past the logical length it
     reads zeroed padding without raising — hence the lint gate *)
  let b = Bits.of_string "110010111" in
  Alcotest.(check string) "in-range agrees with sub"
    (Bits.to_string (Bits.sub b ~pos:2 ~len:4))
    (Bits.to_string (Bits.unsafe_sub b ~pos:2 ~len:4));
  Alcotest.(check string) "padding reads as zeros" "1110000"
    (Bits.to_string (Bits.unsafe_sub b ~pos:6 ~len:7))

let test_bits_equal () =
  Alcotest.(check bool) "equal" true (Bits.equal (Bits.of_string "101") (Bits.of_string "101"));
  Alcotest.(check bool) "length differs" false (Bits.equal (Bits.of_string "1010") (Bits.of_string "101"));
  Alcotest.(check bool) "content differs" false (Bits.equal (Bits.of_string "100") (Bits.of_string "101"))

let prop_bits_string_roundtrip =
  QCheck.Test.make ~name:"bits: of_string/to_string roundtrip" ~count:200
    QCheck.(string_gen_of_size (Gen.int_bound 64) (Gen.oneofl [ '0'; '1' ]))
    (fun s -> Bits.to_string (Bits.of_string s) = s)

let prop_bits_int_roundtrip =
  QCheck.Test.make ~name:"bits: of_int/to_int roundtrip" ~count:500
    QCheck.(pair (int_range 1 30) (int_bound 1000000))
    (fun (width, v) ->
      QCheck.assume (v < 1 lsl width);
      Bits.to_int (Bits.of_int ~width v) = v)

let prop_bits_append_length =
  QCheck.Test.make ~name:"bits: |a ++ b| = |a| + |b|" ~count:200
    QCheck.(pair small_nat small_nat)
    (fun (x, y) ->
      let rng = Rng.create (x + (1000 * y)) in
      let a = Bits.random rng (x mod 100) and b = Bits.random rng (y mod 100) in
      Bits.length (Bits.append a b) = Bits.length a + Bits.length b)

(* ---- Min_heap ------------------------------------------------------ *)

let test_heap_basic () =
  let h = Min_heap.create ~capacity:2 ~dummy:"-" () in
  Alcotest.(check bool) "fresh heap empty" true (Min_heap.is_empty h);
  Min_heap.push h ~k0:3 ~k1:0 ~k2:0 "c";
  Min_heap.push h ~k0:1 ~k1:2 ~k2:0 "b";
  Min_heap.push h ~k0:1 ~k1:1 ~k2:9 "a";
  Alcotest.(check int) "size" 3 (Min_heap.size h);
  Alcotest.(check (option (triple int int int))) "min key" (Some (1, 1, 9)) (Min_heap.min_key h);
  Alcotest.(check (option int)) "min k0" (Some 1) (Min_heap.min_k0 h);
  (match Min_heap.pop_min h with
  | Some (1, 1, 9, "a") -> ()
  | _ -> Alcotest.fail "wrong min");
  (match Min_heap.pop_min h with
  | Some (1, 2, 0, "b") -> ()
  | _ -> Alcotest.fail "wrong second");
  Min_heap.clear h;
  Alcotest.(check bool) "cleared" true (Min_heap.is_empty h);
  Alcotest.(check (option int)) "no min" None (Min_heap.min_k0 h)

let prop_heap_pop_sorted =
  QCheck.Test.make ~name:"min_heap: drain order is the sorted key order" ~count:200
    QCheck.(list_of_size (Gen.int_bound 200) (triple (int_bound 50) (int_bound 50) (int_bound 50)))
    (fun keys ->
      let h = Min_heap.create ~dummy:(-1) () in
      List.iteri (fun i (a, b, c) -> Min_heap.push h ~k0:a ~k1:b ~k2:c i) keys;
      let rec drain acc =
        match Min_heap.pop_min h with
        | None -> List.rev acc
        | Some (a, b, c, _) -> drain ((a, b, c) :: acc)
      in
      drain [] = List.sort compare keys)

let prop_heap_interleaved_model =
  (* alternate random pushes and pops against a sorted-list model; unique
     keys via the insertion counter so the model's order is total *)
  QCheck.Test.make ~name:"min_heap: interleaved push/pop matches a sorted-list model" ~count:100
    QCheck.(list_of_size (Gen.int_bound 300) (pair (int_bound 100) bool))
    (fun ops ->
      let h = Min_heap.create ~capacity:1 ~dummy:(-1) () in
      let model = ref [] in
      let counter = ref 0 in
      List.for_all
        (fun (t, is_pop) ->
          if is_pop then
            match (Min_heap.pop_min h, !model) with
            | None, [] -> true
            | Some (a, b, c, v), k :: rest ->
                model := rest;
                (a, b, c, v) = k
            | _ -> false
          else begin
            incr counter;
            Min_heap.push h ~k0:t ~k1:!counter ~k2:0 !counter;
            model := List.sort compare ((t, !counter, 0, !counter) :: !model);
            Min_heap.size h = List.length !model
          end)
        ops)

(* ---- Rng ----------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_split_independent () =
  let base = Rng.create 7 in
  let a = Rng.split base 1 and b = Rng.split base 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_split_reproducible () =
  let x = Rng.bits64 (Rng.split (Rng.create 5) 9) in
  let y = Rng.bits64 (Rng.split (Rng.create 5) 9) in
  Alcotest.(check int64) "split reproducible" x y

let test_rng_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_uniformish () =
  let rng = Rng.create 11 in
  let counts = Array.make 8 0 in
  for _ = 1 to 8000 do
    let v = Rng.int rng 8 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 800 && c < 1200)) counts

let test_rng_shuffle_permutation () =
  let rng = Rng.create 13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* [Rng.int] as it was written with a per-call closure: the reference
   stream the closure-free version must reproduce draw for draw. *)
let reference_int t bound =
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let rec draw () =
    let v = Int64.to_int (Rng.bits64 t) land mask in
    let limit = mask - (mask mod bound) in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let prop_int_matches_reference =
  QCheck.Test.make ~name:"rng: int draws the reference stream" ~count:200
    QCheck.(triple (int_bound 10000) (int_range 1 977) (int_range 1 200))
    (fun (seed, bound, draws) ->
      let a = Rng.create seed and b = Rng.create seed in
      List.for_all
        (fun _ -> Rng.int a bound = reference_int b bound)
        (List.init draws Fun.id))

(* Words per [Rng.int] draw, counted exactly (see Alloc).  What is left
   is the boxed [int64] state [bits64] stores; [int] itself must add
   nothing. *)
let test_rng_int_alloc () =
  let words = Alloc.words in
  let rng = Rng.create 5 and draws = 100_000 in
  (* what reading the counters allocates itself *)
  let overhead =
    let w0 = words () in
    words () -. w0
  in
  let before = words () in
  for i = 1 to draws do
    ignore (Sys.opaque_identity (Rng.int rng (1 + (i mod 977))))
  done;
  let per_draw = (words () -. before -. overhead) /. float_of_int draws in
  if per_draw > 6. then Alcotest.failf "Rng.int allocates %.4f words per draw (> 6)" per_draw

(* ---- split_string domain separation (rng.mli invariant) ------------- *)

let streams_differ a b =
  (* 64 draws from truly independent streams collide with probability ~2^-58
     per draw; any overlap beyond noise means the keys were conflated. *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  !same < 4

let key_gen =
  QCheck.string_gen_of_size (QCheck.Gen.int_range 0 24) QCheck.Gen.printable

let prop_split_string_empty_vs_any =
  QCheck.Test.make ~name:"rng: split_string \"\" differs from any non-empty key" ~count:100
    QCheck.(pair (int_bound 10000) key_gen)
    (fun (seed, key) ->
      QCheck.assume (key <> "");
      let base = Rng.create seed in
      streams_differ (Rng.split_string base "") (Rng.split_string base key))

let prop_split_string_prefix_keys =
  QCheck.Test.make ~name:"rng: split_string on a proper prefix differs from the full key" ~count:100
    QCheck.(triple (int_bound 10000) key_gen (string_gen_of_size (Gen.int_range 1 12) Gen.printable))
    (fun (seed, key, suffix) ->
      let base = Rng.create seed in
      streams_differ (Rng.split_string base key) (Rng.split_string base (key ^ suffix)))

let prop_split_string_stable =
  QCheck.Test.make ~name:"rng: split_string ignores how much of the parent was consumed" ~count:100
    QCheck.(triple (int_bound 10000) key_gen (int_range 0 20))
    (fun (seed, key, draws) ->
      let fresh = Rng.create seed in
      let consumed = Rng.create seed in
      for _ = 1 to draws do
        ignore (Rng.bits64 consumed)
      done;
      Rng.bits64 (Rng.split_string fresh key) = Rng.bits64 (Rng.split_string consumed key))

(* The label hash walks the string in place: a longer label costs no
   words, so naming a stream by a long key is as cheap as by a short one. *)
let test_split_string_alloc () =
  let base = Rng.create 7 in
  let per_call key =
    Alloc.words_of (fun () ->
        for _ = 1 to 1000 do
          ignore (Sys.opaque_identity (Rng.split_string base key))
        done)
    /. 1000.
  in
  let short = per_call "r" and long = per_call (String.make 64 'x') in
  if long > short then Alcotest.failf "split_string: %.2f words for a 64-byte key > %.2f for one byte" long short

(* ---- derive: sub-run seeds named by their place in the reduction ---- *)

let prop_derive_distinct =
  QCheck.Test.make ~name:"rng: derive is distinct across keys and differs from the seed" ~count:200
    QCheck.(pair int (list_of_size (Gen.int_range 1 40) key_gen))
    (fun (seed, keys) ->
      let keys = List.sort_uniq String.compare keys in
      let seeds = List.map (Rng.derive seed) keys in
      List.length (List.sort_uniq Int.compare seeds) = List.length keys && not (List.mem seed seeds))

(* ---- Sha256 --------------------------------------------------------- *)

let test_sha256_vectors () =
  (* FIPS 180-4 test vectors *)
  Alcotest.(check string) "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.hex "");
  Alcotest.(check string) "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.hex "abc");
  Alcotest.(check string) "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha256_million_a () =
  Alcotest.(check string) "10^6 x a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.hex (String.make 1_000_000 'a'))

let test_sha256_bytes_and_hex_of_raw () =
  let raw = Sha256.digest_string "abc" in
  Alcotest.(check int) "raw is 32 bytes" 32 (String.length raw);
  Alcotest.(check string) "hex_of_raw agrees" (Sha256.hex "abc") (Sha256.hex_of_raw raw);
  Alcotest.(check string) "digest_bytes agrees" raw
    (Sha256.digest_bytes (Bytes.of_string "abc"))

(* ---- Prime / Fp ---------------------------------------------------- *)

let test_primes_small () =
  Alcotest.(check (list bool)) "primality"
    [ false; false; true; true; false; true; false; true; false; false ]
    (List.map Prime.is_prime [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ])

let test_next_prime () =
  Alcotest.(check int) "next_prime 10" 11 (Prime.next_prime 10);
  Alcotest.(check int) "next_prime 13" 17 (Prime.next_prime 13);
  Alcotest.(check int) "next_prime 1" 2 (Prime.next_prime 1);
  Alcotest.(check int) "next_prime 1000" 1009 (Prime.next_prime 1000)

let test_fp_ops () =
  let f = Fp.create 101 in
  Alcotest.(check int) "add" 3 (Fp.add f 52 52);
  Alcotest.(check int) "sub" 99 (Fp.sub f 3 5);
  Alcotest.(check int) "mul" (50 * 50 mod 101) (Fp.mul f 50 50);
  Alcotest.(check int) "pow" (Fp.mul f 7 (Fp.mul f 7 7)) (Fp.pow f 7 3);
  Alcotest.(check int) "fermat" 1 (Fp.pow f 5 100)

let test_fp_inverse () =
  let f = Fp.create 97 in
  for a = 1 to 96 do
    Alcotest.(check int) "a * a^-1 = 1" 1 (Fp.mul f a (Fp.inv f a))
  done

let test_fp_bit_width () =
  Alcotest.(check int) "width 101" 7 (Fp.bit_width (Fp.create 101));
  Alcotest.(check int) "width 2" 1 (Fp.bit_width (Fp.create 2));
  Alcotest.(check int) "width 257" 9 (Fp.bit_width (Fp.create 257))

(* The hand-written width loops Ilog.ceil_log2 replaced, kept as the
   reference: [ge ~from n] is the smallest [w >= from] with [2^w >= n],
   [gt x] the smallest [w >= 1] with [2^w > x]. *)
let ceil_log2_ref_ge ~from n =
  let rec go w = if 1 lsl w >= n then w else go (w + 1) in
  go from

let ceil_log2_ref_gt x =
  let rec go w = if 1 lsl w > x then w else go (w + 1) in
  max 1 (go 1)

let prop_ceil_log2_matches_loops =
  let arg =
    QCheck.oneof
      [
        QCheck.int_range (-4) 70_000;
        QCheck.map (fun (k, d) -> (1 lsl k) + d) QCheck.(pair (int_range 0 60) (int_range (-1) 1));
      ]
  in
  QCheck.Test.make ~name:"ilog: ceil_log2 matches the loops it replaced" ~count:1000 arg (fun n ->
      Ilog.ceil_log2 n = ceil_log2_ref_ge ~from:0 n
      && max 1 (Ilog.ceil_log2 n) = ceil_log2_ref_ge ~from:1 n
      && Ilog.ceil_log2 (max 2 n) = ceil_log2_ref_ge ~from:1 (max 2 n)
      && max 1 (Ilog.ceil_log2 (n + 1)) = ceil_log2_ref_gt n)

(* ---- Poly ---------------------------------------------------------- *)

let test_poly_eval () =
  let f = Fp.create 101 in
  (* phi_{1,2,3}(x) = (1-x)(2-x)(3-x) at x=5: (-4)(-3)(-2) = -24 = 77 *)
  Alcotest.(check int) "eval" (Fp.of_int f (-24)) (Poly.eval f [ 1; 2; 3 ] 5)

let test_poly_multiset_order_invariance () =
  let f = Fp.create 211 in
  Alcotest.(check int) "order invariant" (Poly.eval f [ 4; 9; 9; 2 ] 17) (Poly.eval f [ 9; 2; 4; 9 ] 17)

(* phi is multiplicative over multiset union: the running products of the
   groups' evaluations are the evaluations of their unions, the "aggregate
   up the path" shape of the in-block multiset-equality executions. *)
let test_poly_prefixes () =
  let f = Fp.create 211 in
  let groups = [ [ 1; 2 ]; []; [ 3 ]; [ 4; 5 ] ] in
  let acc = ref 1 in
  let p = Array.of_list (List.map (fun group -> acc := Fp.mul f !acc (Poly.eval f group 7); !acc) groups) in
  Alcotest.(check int) "prefix 0" (Poly.eval f [ 1; 2 ] 7) p.(0);
  Alcotest.(check int) "prefix 1" p.(0) p.(1);
  Alcotest.(check int) "prefix 2" (Poly.eval f [ 1; 2; 3 ] 7) p.(2);
  Alcotest.(check int) "prefix 3" (Poly.eval f [ 1; 2; 3; 4; 5 ] 7) p.(3)

let prop_poly_identity_testing =
  QCheck.Test.make ~name:"poly: distinct multisets collide rarely" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 8) (int_bound 30))
    (fun s ->
      let f = Fp.create 1009 in
      let s' = List.map (fun x -> x + 1) s in
      QCheck.assume (List.sort compare s <> List.sort compare s');
      (* Schwartz-Zippel, counted exactly: the two products differ in a
         nonzero polynomial of degree < |s|, so they agree on at most |s|
         points of F_1009 (a k/p collision rate) *)
      let collisions = ref 0 in
      for z = 0 to 1008 do
        if Poly.eval f s z = Poly.eval f s' z then incr collisions
      done;
      !collisions <= List.length s)

(* ---- Json ----------------------------------------------------------- *)

let test_json_escape () =
  let check name expected input = Alcotest.(check string) name expected (Json.escape input) in
  check "double quote" {|a\"b|} "a\"b";
  check "backslash" {|a\\b|} "a\\b";
  check "newline" {|a\nb|} "a\nb";
  check "tab" {|a\tb|} "a\tb";
  check "carriage return" {|a\rb|} "a\rb";
  check "other control byte" {|a\u0001b|} "a\001b";
  check "plain passes through" "e3/crossing-sweep n=150, [ok]" "e3/crossing-sweep n=150, [ok]"

let () =
  Alcotest.run "util"
    [
      ( "bits",
        [
          Alcotest.test_case "int roundtrip" `Quick test_bits_roundtrip;
          Alcotest.test_case "get" `Quick test_bits_get;
          Alcotest.test_case "append/concat" `Quick test_bits_append;
          Alcotest.test_case "sub" `Quick test_bits_sub;
          Alcotest.test_case "writer/reader" `Quick test_bits_writer_reader;
          Alcotest.test_case "reader underflow" `Quick test_bits_reader_underflow;
          Alcotest.test_case "range errors" `Quick test_bits_range_errors;
          Alcotest.test_case "flat range errors" `Quick test_bits_flat_range_errors;
          Alcotest.test_case "flat agrees with checked" `Quick test_bits_flat_agrees_with_checked;
          Alcotest.test_case "flat capacity preallocation" `Quick test_bits_flat_capacity_reuse;
          Alcotest.test_case "unsafe_sub" `Quick test_bits_unsafe_sub;
          Alcotest.test_case "equal" `Quick test_bits_equal;
          qtest prop_bits_string_roundtrip;
          qtest prop_bits_int_roundtrip;
          qtest prop_bits_append_length;
        ] );
      ( "min-heap",
        [
          Alcotest.test_case "push/pop/clear" `Quick test_heap_basic;
          qtest prop_heap_pop_sorted;
          qtest prop_heap_interleaved_model;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "split reproducible" `Quick test_rng_split_reproducible;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "uniform-ish" `Quick test_rng_uniformish;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          qtest prop_int_matches_reference;
          Alcotest.test_case "int allocates no closure" `Quick test_rng_int_alloc;
          qtest prop_split_string_empty_vs_any;
          qtest prop_split_string_prefix_keys;
          qtest prop_split_string_stable;
          Alcotest.test_case "split_string allocation flat in key length" `Quick test_split_string_alloc;
          qtest prop_derive_distinct;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a" `Quick test_sha256_million_a;
          Alcotest.test_case "raw digest" `Quick test_sha256_bytes_and_hex_of_raw;
        ] );
      ( "field",
        [
          Alcotest.test_case "small primes" `Quick test_primes_small;
          Alcotest.test_case "next_prime" `Quick test_next_prime;
          Alcotest.test_case "fp ops" `Quick test_fp_ops;
          Alcotest.test_case "fp inverse" `Quick test_fp_inverse;
          Alcotest.test_case "fp bit width" `Quick test_fp_bit_width;
          qtest prop_ceil_log2_matches_loops;
        ] );
      ( "poly",
        [
          Alcotest.test_case "eval" `Quick test_poly_eval;
          Alcotest.test_case "multiset order invariance" `Quick test_poly_multiset_order_invariance;
          Alcotest.test_case "prefixes" `Quick test_poly_prefixes;
          qtest prop_poly_identity_testing;
        ] );
      ("json", [ Alcotest.test_case "escape" `Quick test_json_escape ]);
    ]
