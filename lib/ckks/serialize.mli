(** Binary (de)serialization of ciphertexts and key material.

    A deployed FHE service moves encrypted inputs, evaluation keys and
    results over the wire; this module gives the backend that surface.
    The format is a little-endian length-prefixed framing with a magic
    tag and version byte per object; deserialization validates shape
    against the provided context.

    The secret key is deliberately {e not} serializable through this
    interface — only public material (ciphertexts, public key, switch
    keys) travels. *)

val ciphertext_to_bytes : Evaluator.ct -> bytes

val ciphertext_of_bytes : Context.t -> bytes -> (Evaluator.ct, string) result

val galois_keys_to_bytes : Keys.t -> bytes
(** Serialize the public evaluation material: public key, relin key, and
    all currently generated Galois keys, each at the level it is
    resident at (a budgeted key set holds trimmed keys). *)

val load_evaluation_keys :
  Context.t -> secret:Poly.t -> bytes -> (Keys.t, string) result
(** Rebuild a key set from serialized evaluation material.  Decryption
    needs the secret, which the caller keeps out of band; pass
    [Keys.t.s] from the generating side (or a dummy if the consumer only
    evaluates). *)
