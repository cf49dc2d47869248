import math
import tracemalloc

import numpy as np
import pytest

from berezinlab.operators import toeplitz_exact, unitary_uz
from berezinlab.quadrature import build_rule
from berezinlab.suites import (BATTERIES, composed_block, measured_moment_table,
                               plain_compression_residuals, random_symbol,
                               run_batteries, sample_points)
from berezinlab.symbols import MonomialSymbol
from conftest import node_weights


def test_every_battery_passes_at_shipped_tolerances():
    results = run_batteries()
    failures = [(r.battery, r.max_residual, r.tolerance)
                for r in results if not r.passed]
    assert not failures, f"batteries failed: {failures}"
    assert len(results) == len(BATTERIES)


def test_only_filter_runs_single_battery():
    results = run_batteries(only="moment-oracle")
    assert len(results) == 1
    assert results[0].battery == "moment-oracle"
    assert results[0].passed


def node_powers(rule, degree):
    """The powers w^0 .. w^degree of every node, by running products."""
    powers = np.empty((degree + 1, rule.nodes.size), dtype=complex)
    powers[0] = 1.0
    for a in range(1, degree + 1):
        powers[a] = powers[a - 1] * rule.nodes
    return powers


def moment_table_whole_array(rule, degree):
    """Reference: the Gram matrix of the full power table against the weights."""
    powers = node_powers(rule, degree)
    return (powers * node_weights(rule)) @ powers.conj().T


def traced_peak_mb(fn) -> float:
    """Peak of the memory tracemalloc traces while fn runs, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_moment_table_matches_whole_array_gram(default_rule):
    got = measured_moment_table(default_rule, 40)
    assert got.shape == (41, 41)
    assert np.max(np.abs(got - moment_table_whole_array(default_rule, 40))) <= 1e-15


def exact_row_sums(values: np.ndarray) -> np.ndarray:
    """Sums along the last axis of a real array, exact to about 2^-88 of its largest entry.

    Three times over, each row splits exactly into its part on the grid of
    ulp(sigma), sigma a power of two above n max|row|, and the rest.  No
    partial sum of grid parts rounds, so np.sum adds them exactly, and the
    rest shrinks by 2^-35 or more each time.  math.fsum adds the three
    exact sums and the rest's pairwise sum.  math.fsum on the values
    themselves would take some 300 ns a value on rows that cancel.
    """
    pieces = []
    rest = values
    for _ in range(3):
        _, exponent = np.frexp(np.max(np.abs(rest), axis=-1, keepdims=True))
        sigma = np.ldexp(1.0, exponent + values.shape[-1].bit_length())
        grid = (sigma + rest) - sigma
        pieces.append(np.sum(grid, axis=-1))
        rest = rest - grid
    pieces.append(np.sum(rest, axis=-1))
    return np.array([math.fsum(row) for row in zip(*pieces)])


@pytest.mark.parametrize("shape,degree", [((80, 256), 40), ((160, 512), 12)])
def test_moment_table_matches_exact_node_sums(shape, degree):
    rule = build_rule(*shape)
    powers = node_powers(rule, degree)
    conj = powers.conj()
    got = measured_moment_table(rule, degree)
    assert got.shape == (degree + 1, degree + 1)
    assert np.array_equal(got, got.conj().T)
    for a in range(degree + 1):
        # every node's weights w^a conj(w)^b, for b <= a
        terms = node_weights(rule) * powers[a] * conj[:a + 1]
        want = exact_row_sums(terms.real) + 1j * exact_row_sums(terms.imag)
        assert np.max(np.abs(got[a, :a + 1] - want)) <= 1e-15
        if a in (0, 1, degree):
            # the corners against math.fsum of the node values themselves
            for b in {0, min(1, a), a}:
                fsum = complex(math.fsum(terms[b].real.tolist()),
                               math.fsum(terms[b].imag.tolist()))
                assert want[b] == fsum


def test_moment_oracle_residual_unchanged():
    # the value the report prints from the factored table; it calls no BLAS
    # routine, so the value holds under every OpenBLAS kernel and thread count
    residual = run_batteries(only="moment-oracle")[0].max_residual
    assert float(f"{residual:.12g}") == 9.89007755524e-17


def test_moment_table_memory_stays_small(default_rule):
    # the whole-array table peaked at 25.8 MB
    assert traced_peak_mb(lambda: measured_moment_table(default_rule, 40)) < 4.0


def test_composed_block_memory_stays_small(big_rule):
    # evaluating and transforming the whole 160 x 640 grid peaked at 3.2 MB
    u = MonomialSymbol.monomial(1, 1)
    assert traced_peak_mb(lambda: composed_block(u, 0.7, big_rule, 16)) < 1.5


def test_rule_doubling_memory_stays_small(default_rule):
    # evaluating each symbol on all 81 920 nodes of the doubled rule peaked at 4.6 MB
    np.random.default_rng(0)  # numpy.random's first import would count otherwise
    battery = BATTERIES["rule-doubling-stability"]
    assert traced_peak_mb(battery) < 3.0
    assert battery().passed


@pytest.mark.parametrize("z", [0.5, 0.7, -0.35 + 0.35j, 0.45j, 1e-3])
def test_plain_compression_leading_block_matches_full_product(z, default_rule):
    # U_z is built once, at 128 rows, and only the leading block of each
    # product is formed; at |z| = 1e-3 the 128-row build takes two prefix
    # blocks where the 32-row one takes one
    symbols = [MonomialSymbol.identity(), MonomialSymbol.monomial(0, 1),
               MonomialSymbol.monomial(1, 1)]
    dims, block = (32, 64, 128), 16
    big = unitary_uz(z, 128).matrix
    got = plain_compression_residuals(symbols, z, dims, default_rule, block)
    for u, residuals in zip(symbols, got):
        rhs = composed_block(u, z, default_rule, block)
        for dim, residual in zip(dims, residuals):
            uz = unitary_uz(z, dim)
            assert np.max(np.abs(big[:dim, :dim] - uz.matrix)) <= 1e-14
            full = (uz @ toeplitz_exact(u, dim) @ uz).leading_block(block)
            assert abs(residual - (full - rhs).norm_fro()) <= 1e-14 * full.norm_fro()


def test_injectivity_residual_unchanged():
    # the fit solves one small radial least-squares problem per diagonal,
    # so the printed value is the same with one BLAS thread or several
    residual = run_batteries(only="berezin-injectivity")[0].max_residual
    assert float(f"{residual:.12g}") == 1.06544316479e-12


def test_harmonic_classifier_battery_checks_witnesses():
    # the 40 drawn pairs give no matched combination; the 10 seeded
    # matched pairs after them do, each with an exact integer witness
    result = run_batteries(only="harmonic-product-classifier")[0]
    assert result.details == {"matched_cases": 10}
    assert result.passed and result.max_residual == 0.0


def test_unknown_battery_rejected():
    with pytest.raises(KeyError):
        run_batteries(only="nope")


def test_results_carry_reportable_fields():
    result = run_batteries(only="mobius-involution")[0]
    assert result.description
    assert result.tolerance > 0
    assert isinstance(result.details, dict)


# The acceptance gate draws its inputs with these helpers, so an edit made
# for a battery must not silently change them.  Pinned: the first symbol
# drawn for each criterion seed (01: 201, 02: 203, 07: 206) and criterion
# 01's grid.
FIRST_SYMBOLS = {
    (201, 6, True): {(1, 0): complex(-0.8195245502353794, -0.5756879882822099),
                     (2, 0): complex(0.07326665573470836, -0.023317302628337977),
                     (4, 0): complex(0.09823053090402722, 0.895660878757452),
                     (5, 0): complex(0.3681468529886034, 0.03940836285429605),
                     (6, 0): complex(-0.9948039596252873, 0.566747632754943)},
    (203, 6, False): {(0, 6): complex(-0.024230005087222173, -0.9474399255846422),
                      (2, 3): complex(0.38394469380560614, -1.415307238079075),
                      (3, 0): complex(-0.36598601023655686, 0.7242536852359673),
                      (5, 1): complex(-0.7463810495857757, -0.3311626032961854)},
    (206, 4, True): {(0, 1): complex(0.7828436092552107, -0.7861497892648275),
                     (0, 4): complex(0.7209577057921301, 0.2548514623010638),
                     (2, 0): complex(0.02538680389062442, 1.6265714460110507),
                     (4, 0): complex(1.3617250363739324, 0.07220936493399543)},
}

GRID_202 = [
    (0.5295377329761054, -0.009091990582825279), (-0.5972113371623118, -0.05196060261462511),
    (-0.4186085956229939, 0.6967987527740489), (-0.6316613385853393, 0.3973313664577733),
    (0.12584742985195385, -0.47697743896390316), (0.18465769647633237, 0.5678171736786433),
    (0.3219401915318766, 0.5939682448190897), (0.21910468092936108, 0.793568886945128),
    (0.24932728537878177, -0.33147991967224916), (-0.07973228041273027, -0.8569655810464673),
    (0.48067549772502843, -0.15629674674927693), (0.7096044522273647, -0.3561594263717776),
    (-0.6120695531110378, -0.22452580779617295), (-0.011894088290340525, 0.5314894807128194),
    (-0.4300690448844352, -0.5161942477560836), (0.38160852681665, -0.49792234571861055),
    (0.18125176404791835, -0.30108084157038306), (0.5932709993341411, 0.1024225521259181),
    (0.863876670007289, -0.07259434906813148), (-0.6897079176188834, 0.2396414870762425),
    (0.031491630722623926, 0.3101124042293498), (-0.1489950849443568, 0.7389070888068251),
    (0.6956570001261085, -0.28734193058713564), (-0.2074845201167799, 0.5982068522882472),
    (-0.12841008681833951, 0.08558921362349849), (0.45584528218848214, 0.4911248565351324),
    (-0.467718584435877, 0.09968729774384627), (-0.40429369133568266, -0.5254908463166847),
    (-0.5448940879860383, 0.10550264037466645), (-0.25302340599228584, 0.5119214853532279),
    (-0.7173932572696841, -0.49470389586150487), (-0.6586680364608957, 0.5751944637357811),
    (-0.23280930862976054, 0.29239872229130015), (-0.20572138620333658, 0.3970458100618568),
    (-0.8552639144594063, 0.2568126840765338), (-0.6438494475288975, 0.18922884622773672),
    (0.7295499991374081, -0.15791547255104327), (0.2497901733504599, 0.6434702403996705),
    (0.18301544370358602, -0.25595771113401067), (0.11021278883331043, -0.6600023366622785),
    (0.06150337574552442, -0.1765758021036823), (0.02626673211767861, -0.01200218467960992),
    (0.03363361579438964, 0.1218542631609376), (0.6346901093099612, -0.06992812029528185),
    (-0.16449135514960153, 0.2126128636867049), (0.16865092789623978, -0.00034663597442934546),
    (-0.06928707590781204, 0.2711089772693996), (-0.09326612101961713, 0.6448805619154849),
    (-0.7087349388080387, 0.10011584587594391), (-0.35370549827855013, -0.22236673712535665),
    (0.7539810593418134, 0.41560672841776997), (0.05930866193412054, 0.3792563576191523),
    (-0.3166161069945185, -0.5005868768420078), (-0.4081278423309815, -0.5931027819403561),
    (-0.6375894494502127, -0.3146463950539117), (-0.38315855526072623, -0.13871203770725865),
    (-0.03627440701680174, -0.39765235295580503), (0.37503845530800095, -0.2591072993648748),
    (0.005257263038073444, 0.6773948524414589), (-0.8062187450013454, -0.1711299210840342),
    (-0.35785129608042676, 0.11088955821013109), (0.5015026640836157, -0.37904685454855425),
    (-0.3339137800619932, 0.25926628986532946), (0.3593211198016842, -0.7089216215576554),
    (0.47240311711906013, -0.3115552169625589), (-0.1643242707620311, -0.3132128795403141),
    (0.5844024406422011, -0.4508511285413658), (0.14975316177471473, -0.6439910679880005),
    (0.07143291243757559, -0.7299706111193923), (0.22766634297127852, 0.35327953310833043),
    (0.3665303506123981, 0.2831793861239562), (0.06732200989255396, 0.5059564693919686),
    (-0.7894532109707615, 0.2455728244553925), (-0.39880060746225593, 0.27571436240337005),
    (0.46511486292186294, 0.5845185707652688), (-0.6533674578975874, -0.28682320705456804),
    (-0.682146694286286, -0.27961521785464444), (0.4463113268131715, 0.3991869102982892),
    (0.27866184374319397, 0.730796632757141), (0.2260329362495406, -0.5821473576262233),
    (0.11153228655543924, 0.4444792979517457), (-0.32477470443800527, -0.5465687571888159),
    (0.19115464700353726, -0.7207405892902836), (0.07776046061690832, 0.30082280075649254),
    (0.7082833543786746, 0.2997029197035338), (0.4333686354682932, -0.47422069208152356),
    (0.45858327616652794, -0.7225028263964778), (0.3555684011444681, 0.5459511762366284),
    (0.8344228646797099, -0.13411149461056743), (0.1582111074081356, -0.34550899566840976),
    (-0.036423613396371346, -0.32748394659627245), (-0.2169383251934018, 0.5937168348499662),
    (-0.027506122967293777, 0.046630853861534365), (-0.2779059793601741, 0.5694612535249827),
    (0.040916997389825294, 0.28937300565716384), (-0.7558743462154586, -0.32115594105679746),
    (0.2556267134404713, -0.7426663947190003), (-0.5995886912319129, 0.08382552544190924),
    (-0.1627234754176768, 0.2784833655805558), (0.05200140160836819, -0.8093878203128408),
]


@pytest.mark.parametrize("seed, degree, harmonic", sorted(FIRST_SYMBOLS))
def test_random_symbol_draws_pinned_acceptance_inputs(seed, degree, harmonic):
    u = random_symbol(np.random.default_rng(seed), degree, harmonic=harmonic)
    assert u.coeffs == FIRST_SYMBOLS[seed, degree, harmonic]


def test_sample_points_draw_pinned_acceptance_grid():
    got = sample_points(np.random.default_rng(202), 100, 0.9)
    expected = np.array([complex(re, im) for re, im in GRID_202])
    assert got.shape == (100,)
    assert np.max(np.abs(got - expected)) <= 1e-15
