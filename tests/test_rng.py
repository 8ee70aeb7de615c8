import functools
import hashlib

import numpy as np
import pytest

from mumkit import Xoshiro256
from mumkit import rng

_MASK = (1 << 64) - 1

# Golden stream digests for seeds 0, 1, 50000 and 2**64 - 1, frozen from
# the pure-Python scalar loop.  Each entry is SHA-256 over the
# little-endian bytes of ``method(n)`` drawn from a fresh generator,
# followed by the final state words (_s0.._s3), 8 bytes each,
# little-endian.  Any change to a seeded value, or to where the stream
# continues after a call, breaks them.  The lengths cover short streams,
# 511..513 around 512, and the stream lengths of ``random_density(6, .)``
# (2592) and of one benchmark ``simulate_counts`` call (14000).
GOLDEN_LENGTHS = (1, 7, 511, 512, 513, 2592, 14000)
GOLDEN = {
    ("uniforms", 0): (
        "c0cf756aeb40b73973a8be4779987a7560df0d49df415d0a44a78d97d56b4676",
        "a8bf81498040f2692e25eee1639cc3f319be99a18006451578504516bfd6cbb7",
        "e3bf18713617a4819e75a3d0d37f21423c64f042c234b8e1d1ece0525d8a5351",
        "da6477ca01bfe14803ec362925a86046c23bf811f55fada7b680e01e18fc6078",
        "56b5a89fb435a7d79e43089607afd2fbe6f173101fc9c3356c06a94922d88391",
        "afc7c4b36236807f18228a76563e3e9106cc8bbb04e090d26d3ec7c421d385a1",
        "937f8e32657eb1097df8bbf8f3ed51f7b02c08aa0473fb9cbacf99add5723d31",
    ),
    ("uniforms", 1): (
        "6492781d2cc8dd16daefd2722046accf343d8df1cdead3e2d7d33747943e2746",
        "d78c5d6022405e335dfdeddbab1b8a195d01cef8cbf03614e9aa341b4982723d",
        "ba152936744ea13016514289606430264456c48bc7bd44fb0418677c57532678",
        "11656d054df69cfa6b34191924f5a63002234ff9d7bd6f6c8c6f6bd1ec52b6c0",
        "d5e51e0bd4221797621d43ecd5316924ea67903399e114253422050ceba53ecc",
        "3b7ba0ed414fe8ba49989edbb928cb3a218bb38e954590aaff152f09d2fb41a3",
        "323a5b5d21e1126a76fca9b7f58133bc6d1df05b168fd0461767f7a559e93dbe",
    ),
    ("uniforms", 50000): (
        "ef68d50e10e6ba9aff88237a5d84e24f8bc174c24108993276d16cdb1c5cc195",
        "e3f1b63de3c4e1e5fe2db2688c1f01311f4a79835d3e92a4185837ba4dc4297e",
        "8ae1627a061f86f434c7961e9ed54e61bdb715835c5179610fde10a351535c63",
        "314a8c941aacb8780b0ca2c091ca7ceacffe977ca14e44afac0430a8184818a8",
        "cbbf8240f7ebc115ec9a58350372b03423a23f5e92593223c995dcaa04b6435c",
        "0c6bc2de80221f72f6684556c0823754532d1cf82216ee41b78d6afc55f58791",
        "8dc10515731953b4f5f5b5da10d242dabead3ef4b8286c8ff590a094d16b53e1",
    ),
    ("uniforms", 18446744073709551615): (
        "acb1265f7300c52d8273c5294d49cf8fc837afc56c62cb021e4be0d57e583818",
        "7dba1b4b412c0afc2b997572b6e1ce86480d7391d1949d6da605964e2340db40",
        "86a7a8cbfe07d05666e3e58962f487f39df5e412970009828a6ec373c966e166",
        "bbf96559207a4c7368f64d9c4a0fc02daf1a777467d171a919537030af4832ac",
        "b5134dd066f9cfce9216d42be44a64b78711ecc97c9397c68e225e8edd84c842",
        "ff17a4a2c54b2d47a536ca99ec0989d9be5c2ee863a98aca84c25f813c983c6c",
        "70ad094683d4363fdbcdcb16798a3ebe34dcd282e135dca37700c67efd771b8b",
    ),
    ("normals", 0): (
        "e48927c4224dc6dd03ef176abbf6bdc8d1e6695c1e79e6a8e119492b06210e17",
        "82380837d04e4a8e9069747c1862e1d4c9719a60660ae8670d38c908d5461898",
        "f2b0ee1b07aaa1d66d3b23718ab82f6f96f4ddf28003c62fd1a45d651a462f43",
        "2ef4098d1266f68f767959a199739f7685d45f4283c70a0edbeb54f09a30b06f",
        "5593d1f55104fcba3400a2f6a98e60f36501147ae73e3eb053d1a8f3aa411959",
        "da6f4b2b8540c86408d6b3923166a65a417f6fe753408da49fd940d70371e27f",
        "750b6cbb578b941ec652907e8ffb6d8c0655bcddf3bba89602da77e91b5d924f",
    ),
    ("normals", 1): (
        "477b124ddf61848ccfcc2765a238c62ce484297bd188a705034bcb323c9d655b",
        "2d4bf27e1354f2fbc94874e7c1b1a3c76f20b30d3e44804ecc1d698e3c6ba35c",
        "496e411507bf1de7c53cb52bedd7cfeedfb1dcaa7022551a9bc30395e8328cd1",
        "6c53cb28c5b7262908205d1640b0d612eb19e03504eb3e8e14635eba9a90de37",
        "41ffa19043eb1f8afeda38f39a34b3738c998e34e3881d9406d487992b4baf2f",
        "e60dd27833a11bce62323f0fa5e3207e06ac99658ff17a6f05af953c18d809ab",
        "63aae4ea7a259ec7a90c6989fee603509eaddbeed3fe5573adc6f7c8bd6a02e7",
    ),
    ("normals", 50000): (
        "345b450b60d8e869f68a23abfc6bcb09cf572b5e82030edce588d2d4fa3f6c44",
        "8017b74a6a94b2097eea8c93de2d015c3bae4c1d085185d60e25848611a75713",
        "4e55b0457fbc6d0b46d3a1c146dd5deed398f9621b8c54492170d34861fcac98",
        "bd42ed993185daf53546575b710f3463070a1ac079b51e8197d3ac5187012bb4",
        "40f7a77caf826f6b9c44e0b4eb162d5b7e86d870721c5cde734b589315e6beab",
        "5090605f8e6adf327a66f3f672fcf6cd73c48640625d7a45a712f4183d8371f1",
        "e1f094e239012f82b4425a875ec64208672911ae37d92b6fb1702b184088e74b",
    ),
    ("normals", 18446744073709551615): (
        "df1345ef12fa54cac765f7798d32a439da05f0108e1d18992813fe5c2c74f929",
        "d1c026c6613213ac99e4346f35111174187b966d1f1371a795268693b03a7430",
        "cf2c69e3f5504b71681e8b1352f105f5e8ccb371dde0bf777f076be2980aeb83",
        "dc35c3566af16d94e2499a717510813b65342adeaf16a224d51714f2e721c26b",
        "522cf022ed1745cf7490853556451f63527768ad62c1ef5d869b7cb622de8c8a",
        "f6d8083086da2e3fd3195561c06ccfbacadc1aa6ca255c9cce28537b88bb4378",
        "e4205aa9507212eba719868b7066ed60886ad5317cc5dc588d274befc27a279f",
    ),
    ("exponentials", 0): (
        "06965f4f1c446ef1c6b1edaec2268585e775a58ecbcde13efeaf7830bb087ec2",
        "67dfd872c18aa24513aed912dff18dae71c86bd0d7036f1afdd53ba78c674205",
        "8e21b47e6650cf26cf33b6880cd4bf9ffb706bff0876a7d474e13fa230e20b7f",
        "14987487c1a25181a61f6433d1ba075b0c72017d29463540114e5712aff1b395",
        "2f5c8d6b2f04bf31df0d249b73e078422832519b4da0ba9f37906e9fb5e8976e",
        "624766f502d00bfe321b66bfbf33853a7b9fa501bcfca3b761c877d29b9ebc66",
        "295d4e30b569b39d20d4e729dd1ffbdac1c33721d88eb1af7a4fa7d9df2c067e",
    ),
    ("exponentials", 1): (
        "75467b1f4b80f464f0b0caaf549cacffbafae90f6002a2ffb7503d24b7299602",
        "eba36e565044d2db992687854daee65179cebb14ac9b3189e7c4b03ca46596b7",
        "909d08ec601e25f436304c423eef72009cc704362154ec54f0b58e5960f8a264",
        "a1e997999c1e7d281b1e345ff409e246484157e392855d20ad355b382f4ecf9a",
        "ccdd074a535511ebf9c9fdde95434a7d349da98940877d09889658b529423c63",
        "96392f6bd4a831b806b8c9d6d2b7be7963494c70bd335824c3986272eea57bf0",
        "44c759d8066d20d27e9ab3e4f30645a66c2fbd01c692f5051007cc7ab824a0a8",
    ),
    ("exponentials", 50000): (
        "a5c9d326c8af1c5839574cfc8d52f27f8facb3be24309e16bc43eae36fb98119",
        "ea5a503ec159fdb51ef8e2b4950c6f7c1e4ed1131f10ecba0d259d6282ac5a9f",
        "4e891c6fff613aa703640b979aac97ee2f86feb06074e5982527f3cb546456f2",
        "3a2108ebe67a253bdc951b54dcf155aec9c21f0f911b3f7383a47a6ddd2c6a4d",
        "8f69ba4cefd600ff0e5c3b439bed0f3bf99626a7ee80972379d12c5ea6a31beb",
        "7f7b8a375d95d52db3648f671ee730074cb6573936b10f65ab69124fa5600086",
        "a9e3efb3cbcc4be15ca22f50bfa4b96017df8e2df38a85886fd17e1810c69252",
    ),
    ("exponentials", 18446744073709551615): (
        "683b39c3dd79adb76af051c0fc76315f0e4057fe19d8e0f929178b99dd8f85c6",
        "14ea3c242bf29c1080cdb8b70d84ea848871ead89889db54f37e220a0710c694",
        "e130e8a373332c1c6ba37f624ddfacdcc32e9071eaf086e09a7a5616179842e5",
        "a7b869a8aea5a58d288d112ea6ed6d064eeb3a2fb7e29ac0d2c0c93dc9da1fb4",
        "e05688fcf442aa9df333c9493c4fa8d457f3f0e003c2ee04af5317a578fae272",
        "0fcd0cb7f65dc50dad180ad0ee55235d605ad16186fdca5cdd82f111ad6aede9",
        "2ec661332b68f2165c79c3e061072ce4f056b3772abcf8bba9885177b2574921",
    ),
    ("complex_normals", 0): (
        "7123300c8fdc67efc48d60bf5689d9f672c4b173a6875391ea904837b9189fb7",
        "dc742e72d41a72a4a81cad71c40a936de61b8cc586fb254c5f80b887801e1803",
        "37bb03e47ab8dfd92cf1faeac6b044d0603bd3986dc01fdadca1d39ee19cd122",
        "16b15d5a1ad8956b35e388b99010f2de1a3f02e69d186bd2af28e86c45b45402",
        "610a74e8e3e03cc480a58e085a2295f65321cec2bf265d7880e91b9acacb0cd9",
        "850fb15483f14d815a32986cacdd34e4366f44fdef40889296dabb4249b4aa68",
        "364b6d2260698677a783260bb3caf78b499960a50fcd6bfe2a877b15231a6c51",
    ),
    ("complex_normals", 1): (
        "e37937ee9351630d8d9d1488ba915a869466338c4b8aef25341a7f018d74833e",
        "e2501b30ee8f49bed726b06078521f17f43767a31a92bc77e9c9fe5c77b2d464",
        "695f2abb00f0c73520b17a56fe5c97873d62df50fa21c52f4b56be11eece5ce4",
        "3af8b579c8dc8081d220f6631e76ad6ebec104dcd5a3d79407c0181b03a3d2ed",
        "9453c16bc497eb81c08ba4eafdc6417c3b2926d8e187724c9bfd89446cc37194",
        "7327190420f2df7ee9b9bbd4750cba727329db53b9095f9d9f90ee85275cb5bd",
        "d1d8974ccf3eeeaf5dc0da2eca3f7a8b4e7d546534cdf2e04d16cd6d50891591",
    ),
    ("complex_normals", 50000): (
        "60c7ec20519a50ca3532a1a0f27bc12851c3ba8988eaaf28300a9168ea46d5cb",
        "643579abc61239bbde4d5d7e609d8a9ef80870fa85dc441cf10dc9d5481ff3b8",
        "ff44ca85d36b55945316544f3c832a4e766bf9c7cdaf6d0e86c0d9a48fb2b584",
        "bd83654a4063380f40e33eafd3513eb053f53a8bda59dceb24626068a602cca2",
        "a805910035f3467663f94a104e78e9ebb9733fec22082db1833fcceec5ec2b47",
        "0cea184334c9453422ca52648218117f919551df6767a0a44d32e7efd3001ef4",
        "66f49dd2300f190ddda26b0aa8437d562359603ec2cdff73965694a63e938146",
    ),
    ("complex_normals", 18446744073709551615): (
        "f62f2ba6c78d23a2d1c34c75f503fbdc632c77944a8624a6becdaedc5949a092",
        "21b055b47e04987a90f31b63260d9b8b64d06da4bd02102f89adcce3dfb77b68",
        "fc0228c43188fdfeee06a3f4e86dfa8e66d6f6c1d3d42a8267650892642d2a0e",
        "71c663b9c98a2070a16eedad2586376eb9957fcbdb7b30fb56dc789e181c342d",
        "b88c5f720082ef57d2918945a60928821387a0872a06c6d05a214af77bfca7c4",
        "30651a1742d1d197bb9a1cafe22243dd22d08e5da003f88373e8fea387ec764f",
        "7a5c2e7a750e6289efdecc6a28a7ef10135296b4cd572f3837bc3040e6200260",
    ),
}



def test_same_seed_same_stream():
    a = Xoshiro256(1234).uniforms(64)
    b = Xoshiro256(1234).uniforms(64)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = Xoshiro256(1).uniforms(16)
    b = Xoshiro256(2).uniforms(16)
    assert not np.array_equal(a, b)


def test_uniform_range_and_mean():
    u = Xoshiro256(7).uniforms(20000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.02


def test_normals_moments():
    z = Xoshiro256(11).normals(40000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_normals_odd_count_prefix_of_even():
    gen = Xoshiro256(3)
    z3 = gen.normals(3)
    z4 = Xoshiro256(3).normals(4)
    assert np.array_equal(z3, z4[:3])


def test_exponentials_are_positive():
    e = Xoshiro256(5).exponentials(1000)
    assert e.min() >= 0.0
    assert abs(e.mean() - 1.0) < 0.15


def test_rejects_negative_seed():
    try:
        Xoshiro256(-1)
    except ValueError:
        return
    raise AssertionError("negative seed accepted")


def reference_uniforms(gen: Xoshiro256, n: int):
    """Test-local copy of the scalar xoshiro256++ loop: n uniforms and the final state."""
    s0, s1, s2, s3 = gen._s0, gen._s1, gen._s2, gen._s3
    out = np.empty(n)
    for i in range(n):
        x = (s0 + s3) & _MASK
        r = ((((x << 23) | (x >> 41)) & _MASK) + s0) & _MASK
        out[i] = (r >> 11) * 2.0**-53
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
    return out, (s0, s1, s2, s3)


def state(gen: Xoshiro256):
    return gen._s0, gen._s1, gen._s2, gen._s3


# q*M - 1, q*M, q*M + 1 for lane lengths M = 8 (at the scalar/lane
# crossover, 256 = 32 * 8, and 768 = 96 * 8), 16 (1024, 2592), 32 (4096,
# 13952), 64 (16384, 20032) and 128 (100096); 1023, 4095 and 16383 also
# sit where M doubles.
@pytest.mark.parametrize(
    "n",
    [n + e for n in (rng._CROSSOVER, 768, 1024, 2592, 4096, 13952, 16384, 20032, 100096)
     for e in (-1, 0, 1)],
)
def test_uniforms_match_scalar_loop(n):
    for seed in (3, 2**64 - 1):
        gen = Xoshiro256(seed)
        want, final = reference_uniforms(Xoshiro256(seed), n)
        assert np.array_equal(gen.uniforms(n), want)
        assert state(gen) == final


@pytest.mark.parametrize(
    "a, b", [(5, 3000), (3000, 5), (767, 1), (700, 800), (14000, 513), (0, 2592)]
)
def test_uniforms_continue_exactly(a, b):
    gen = Xoshiro256(17)
    split = np.concatenate([gen.uniforms(a), gen.uniforms(b)])
    whole = Xoshiro256(17)
    assert np.array_equal(split, whole.uniforms(a + b))
    assert state(gen) == state(whole)


def test_jump_tables_are_read_only_nibble_tables():
    rng._jump_table.cache_clear()
    Xoshiro256(1).uniforms(14000)
    assert rng._jump_table.cache_info().currsize <= 20
    for k in range(14):
        table = rng._jump_table(k)
        assert table.shape == (64, 16, 4) and table.dtype == np.uint64
        assert not table.flags.writeable


def words_to_bits(words: np.ndarray) -> np.ndarray:
    """(4, L) state words -> (256, L) 0/1 bits; bit 64 k + i is bit i of word k."""
    octets = np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little").T


def bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`words_to_bits`, as a C-contiguous (4, L) uint64 array."""
    octets = np.packbits(np.ascontiguousarray(bits.T, dtype=np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(octets.view("<u8").T, dtype=np.uint64)


def float32_jump(k: int, bits: np.ndarray) -> np.ndarray:
    """Test-local copy of the float32 bit-matrix jump: T^(2^k) @ bits over GF(2).

    ``bits`` is a (256, c) 0/1 uint8 array of states.  The product is exact:
    every entry counts at most 256 ones, far inside float32's integer range.
    """
    packed = float32_jump_matrix(k)
    counts = np.zeros((256, bits.shape[1]), dtype=np.float32)
    for lo in range(0, 256, 64):
        cols = np.unpackbits(packed[:, lo // 8 : (lo + 64) // 8], axis=1).astype(np.float32)
        counts += cols @ bits[lo : lo + 64].astype(np.float32)
    return (counts.astype(np.uint16) & 1).astype(np.uint8)


@functools.cache
def float32_jump_matrix(k: int) -> np.ndarray:
    """T^(2^k) over GF(2), rows bit-packed into a (256, 32) uint8 array, by squaring.

    Column i of T is the state one step of the scalar reference loop after
    the unit state e_i.
    """
    if k == 0:
        images = []
        for i in range(256):
            gen = Xoshiro256(0)
            gen._s0, gen._s1, gen._s2, gen._s3 = (
                1 << (i % 64) if w == i // 64 else 0 for w in range(4)
            )
            images.append(reference_uniforms(gen, 1)[1])
        bits = words_to_bits(np.array(images, dtype=np.uint64).T)
    else:
        half = np.unpackbits(float32_jump_matrix(k - 1), axis=1)
        bits = np.concatenate(
            [float32_jump(k - 1, half[:, lo : lo + 64]) for lo in range(0, 256, 64)], axis=1
        )
    return np.packbits(bits, axis=1)


@pytest.mark.parametrize("c", [1, 7, 219, 512])
def test_jump_matches_float32_bit_matrix_product(c):
    states = np.frombuffer(np.random.default_rng(c).bytes(32 * c), dtype="<u8")
    states = states.astype(np.uint64).reshape(c, 4)
    for k in range(15):
        want = bits_to_words(float32_jump(k, words_to_bits(states.T))).T
        assert np.array_equal(rng._jump(k, states), want), k


def stream_digest(seed: int, method: str, n: int) -> str:
    gen = Xoshiro256(seed)
    out = getattr(gen, method)(n)
    h = hashlib.sha256(out.astype(out.dtype.newbyteorder("<")).tobytes())
    h.update(b"".join(s.to_bytes(8, "little") for s in (gen._s0, gen._s1, gen._s2, gen._s3)))
    return h.hexdigest()


@pytest.mark.parametrize("method, seed", list(GOLDEN))
def test_golden_stream_digests(method, seed):
    got = tuple(stream_digest(seed, method, n) for n in GOLDEN_LENGTHS)
    for n, want, have in zip(GOLDEN_LENGTHS, GOLDEN[method, seed], got):
        assert have == want, f"{method}({n}) at seed {seed}"
