"""The first 14 Lawrence Livermore loops in the model ISA (paper §2.1).

The paper's benchmarks are LLL1..LLL14, CFT-compiled for the CRAY-1
scalar unit (no vector instructions).  We do not have the CFT compiler
or the CRAY-1 simulator, so each kernel is hand-coded here in the model
ISA the way a scalarizing compiler would emit it: loop counters and
pointers in A registers, data in S registers, constants parked in the
T (and bounds in the B) backup files, loads with immediate offsets, and
branches testing ``A0``.

Each ``lllN()`` factory returns a :class:`~repro.workloads.base.Workload`
with input data and an independently computed expected result (a pure
Python mirror of the same arithmetic, so the assembly's correctness is
checked against something that is *not* the simulator).

Default problem sizes are scaled down from the paper's (which ran 4k-14k
dynamic instructions per loop) to keep full six-table sweeps fast in
pure Python; every factory takes ``n`` so the paper-scale runs remain
available.  All results in EXPERIMENTS.md are *relative* speedups, as in
the paper, so the scale does not change who wins.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..isa.assembler import assemble
from .base import Workload, memory_from_arrays
from .rng import Generator


def _rng(loop: int) -> Generator:
    """Deterministic per-loop data generator."""
    return Generator(1987 + loop)


def _values(rng: Generator, count: int, low=0.1, high=1.0):
    """Random float64 data bounded away from zero and overflow."""
    return rng.uniform(low, high, count)


# ----------------------------------------------------------------------
# LLL1 -- hydro fragment
# ----------------------------------------------------------------------

def lll1(n: int = 120) -> Workload:
    """``x[k] = q + y[k] * (r*z[k+10] + t*z[k+11])``."""
    XB, YB, ZB = 1000, 2000, 3000
    q, r, t = 0.5, 0.21, 0.38
    rng = _rng(1)
    y = _values(rng, n)
    z = _values(rng, n + 11)

    source = f"""
        ; constants live in the T backup file, as CFT would place them
        S_IMM S1, {q}
        MOV   T1, S1
        S_IMM S2, {r}
        MOV   T2, S2
        S_IMM S3, {t}
        MOV   T3, S3
        MOV   S1, T1          ; q
        MOV   S2, T2          ; r
        MOV   S3, T3          ; t
        A_IMM A1, {XB}
        A_IMM A2, {YB}
        A_IMM A3, {ZB}
        A_IMM A0, {n}
    loop:
        ; CFT-style schedule: loads and index arithmetic ahead of the
        ; dependent floating-point chain
        LOAD_S S4, A3[10]     ; z[k+10]
        LOAD_S S5, A3[11]     ; z[k+11]
        LOAD_S S6, A2[0]      ; y[k]
        A_ADDI A2, A2, 1
        A_ADDI A3, A3, 1
        A_ADDI A0, A0, -1
        F_MUL  S4, S2, S4     ; r * z[k+10]
        F_MUL  S5, S3, S5     ; t * z[k+11]
        F_ADD  S4, S4, S5
        F_MUL  S4, S6, S4
        F_ADD  S4, S1, S4     ; q + ...
        STORE_S A1[0], S4
        A_ADDI A1, A1, 1
        BR_NONZERO A0, loop
        HALT
    """

    expected = [0.0] * n
    for k in range(n):
        expected[k] = q + y[k] * (r * z[k + 10] + t * z[k + 11])

    return Workload(
        name="LLL1",
        program=assemble(source, "LLL1"),
        initial_memory=memory_from_arrays({YB: y, ZB: z}),
        expected_outputs={"x": (XB, expected)},
        description="hydro fragment",
    )


# ----------------------------------------------------------------------
# LLL2 -- ICCG excerpt (incomplete Cholesky conjugate gradient)
# ----------------------------------------------------------------------

def lll2(n: int = 64) -> Workload:
    """Halving reduction: ``x[i] = x[k] - v[k]*x[k-1] - v[k+1]*x[k+1]``."""
    if n & (n - 1):
        raise ValueError("LLL2 wants a power-of-two n")
    XB, VB = 1000, 3000
    size = 2 * n
    rng = _rng(2)
    x0 = _values(rng, size)
    v = _values(rng, size, low=0.05, high=0.4)

    source = f"""
        A_IMM A5, {n}         ; ii
        A_IMM A6, 0           ; ipntp
    outer:
        MOV   A4, A6          ; ipnt = ipntp
        A_ADD A6, A6, A5      ; ipntp += ii
        MOV   S1, A5          ; ii //= 2 (through the shift unit)
        S_SHR S1, S1, 1
        MOV   A5, S1
        MOV   A0, A5          ; inner trip count = new ii
        BR_ZERO A0, done
        A_IMM A7, {XB}
        A_ADD A1, A7, A4
        A_ADDI A1, A1, 1      ; &x[k], k = ipnt+1
        A_ADD A2, A7, A6      ; &x[i], i starts at (new) ipntp
        A_IMM A7, {VB}
        A_ADD A3, A7, A4
        A_ADDI A3, A3, 1      ; &v[k]
    inner:
        LOAD_S S2, A1[0]      ; x[k]
        LOAD_S S3, A1[-1]     ; x[k-1]
        LOAD_S S4, A1[1]      ; x[k+1]
        LOAD_S S5, A3[0]      ; v[k]
        LOAD_S S6, A3[1]      ; v[k+1]
        A_ADDI A1, A1, 2
        A_ADDI A3, A3, 2
        A_ADDI A0, A0, -1
        F_MUL  S3, S5, S3
        F_MUL  S4, S6, S4
        F_SUB  S2, S2, S3
        F_SUB  S2, S2, S4
        STORE_S A2[0], S2
        A_ADDI A2, A2, 1
        BR_NONZERO A0, inner
        JMP outer
    done:
        HALT
    """

    x = list(x0)
    ii, ipntp = n, 0
    while True:
        ipnt = ipntp
        ipntp += ii
        ii //= 2
        if ii == 0:
            break
        i = ipntp
        k = ipnt + 1
        for _ in range(ii):
            x[i] = x[k] - v[k] * x[k - 1] - v[k + 1] * x[k + 1]
            i += 1
            k += 2

    return Workload(
        name="LLL2",
        program=assemble(source, "LLL2"),
        initial_memory=memory_from_arrays({XB: x0, VB: v}),
        expected_outputs={"x": (XB, x)},
        description="ICCG excerpt",
    )


# ----------------------------------------------------------------------
# LLL3 -- inner product
# ----------------------------------------------------------------------

def lll3(n: int = 200) -> Workload:
    """``q += z[k] * x[k]`` -- a serial accumulator chain."""
    ZB, XB, RES = 1000, 2000, 9000
    rng = _rng(3)
    z = _values(rng, n)
    x = _values(rng, n)

    source = f"""
        S_IMM S1, 0.0         ; q
        A_IMM A1, {ZB}
        A_IMM A2, {XB}
        A_IMM A0, {n}
    loop:
        LOAD_S S2, A1[0]
        LOAD_S S3, A2[0]
        A_ADDI A1, A1, 1
        A_ADDI A2, A2, 1
        A_ADDI A0, A0, -1
        F_MUL  S2, S2, S3
        F_ADD  S1, S1, S2
        BR_NONZERO A0, loop
        A_IMM A3, {RES}
        STORE_S A3[0], S1
        HALT
    """

    q = 0.0
    for k in range(n):
        q = q + z[k] * x[k]

    return Workload(
        name="LLL3",
        program=assemble(source, "LLL3"),
        initial_memory=memory_from_arrays({ZB: z, XB: x}),
        expected_outputs={"q": (RES, [q])},
        description="inner product",
    )


# ----------------------------------------------------------------------
# LLL4 -- banded linear equations
# ----------------------------------------------------------------------

def lll4(n: int = 100, xsize: int = 201) -> Workload:
    """``temp -= x[lw++] * y[j]`` over a strided band, three band rows."""
    XB, YB = 1000, 3000
    m = (xsize - 7) // 2
    inner_count = len(range(4, n, 5))
    rng = _rng(4)
    # The band read x[lw] runs up to (last k) - 6 + inner_count - 1,
    # which can exceed xsize; extend the array to cover it.
    x0 = _values(rng, xsize + inner_count)
    y = _values(rng, n, low=0.05, high=0.5)

    source = f"""
        ; inner trip count and the band step m are kept in B registers
        A_IMM A7, {inner_count}
        MOV   B1, A7
        A_IMM A7, {m}
        MOV   B2, A7
        A_IMM A5, {YB + 4}    ; &y[4]
        A_IMM A6, 6           ; k
    outer:
        A_IMM A7, {XB}
        A_ADD A1, A7, A6      ; &x[k]
        LOAD_S S1, A1[-1]     ; temp = x[k-1]
        A_ADDI A2, A1, -6     ; &x[lw], lw = k-6
        A_IMM A3, {YB + 4}    ; &y[j], j = 4
        MOV   A0, B1
    inner:
        LOAD_S S2, A2[0]
        LOAD_S S3, A3[0]
        A_ADDI A2, A2, 1
        A_ADDI A3, A3, 5
        A_ADDI A0, A0, -1
        F_MUL  S2, S2, S3
        F_SUB  S1, S1, S2
        BR_NONZERO A0, inner
        LOAD_S S4, A5[0]      ; y[4]
        F_MUL  S4, S4, S1
        STORE_S A1[-1], S4
        MOV   A7, B2
        A_ADD A6, A6, A7      ; k += m
        A_IMM A7, {-xsize}
        A_ADD A0, A6, A7      ; k - xsize
        BR_MINUS A0, outer
        HALT
    """

    x = list(x0)
    k = 6
    while k < xsize:
        lw = k - 6
        temp = x[k - 1]
        for j in range(4, n, 5):
            temp = temp - x[lw] * y[j]
            lw += 1
        x[k - 1] = y[4] * temp
        k += m

    return Workload(
        name="LLL4",
        program=assemble(source, "LLL4"),
        initial_memory=memory_from_arrays({XB: x0, YB: y}),
        expected_outputs={"x": (XB, x)},
        description="banded linear equations",
    )


# ----------------------------------------------------------------------
# LLL5 -- tri-diagonal elimination, below diagonal
# ----------------------------------------------------------------------

def lll5(n: int = 150) -> Workload:
    """``x[i] = z[i] * (y[i] - x[i-1])`` -- a loop-carried chain."""
    XB, YB, ZB = 1000, 2000, 3000
    rng = _rng(5)
    y = _values(rng, n + 1)
    z = _values(rng, n + 1, low=0.05, high=0.9)
    x0 = 0.42

    source = f"""
        S_IMM S1, {x0}        ; x[i-1], carried in a register
        A_IMM A1, {XB + 1}
        A_IMM A2, {YB + 1}
        A_IMM A3, {ZB + 1}
        A_IMM A0, {n}
    loop:
        LOAD_S S2, A2[0]      ; y[i]
        LOAD_S S3, A3[0]      ; z[i]
        A_ADDI A2, A2, 1
        A_ADDI A3, A3, 1
        A_ADDI A0, A0, -1
        F_SUB  S4, S2, S1
        F_MUL  S1, S3, S4     ; new x[i]
        STORE_S A1[0], S1
        A_ADDI A1, A1, 1
        BR_NONZERO A0, loop
        HALT
    """

    expected = [0.0] * n
    carry = x0
    for i in range(n):
        carry = z[i + 1] * (y[i + 1] - carry)
        expected[i] = carry

    return Workload(
        name="LLL5",
        program=assemble(source, "LLL5"),
        initial_memory=memory_from_arrays({YB: y, ZB: z, XB: [x0]}),
        expected_outputs={"x": (XB + 1, expected)},
        description="tri-diagonal elimination",
    )


# ----------------------------------------------------------------------
# LLL6 -- general linear recurrence equations
# ----------------------------------------------------------------------

def lll6(n: int = 24) -> Workload:
    """``w[i] += b[k][i] * w[(i-k)-1]`` for ``k < i`` (triangular)."""
    WB, BB = 1000, 2000
    rng = _rng(6)
    w0 = _values(rng, n, low=0.01, high=0.1)
    b = _values(rng, n * n, low=0.01, high=0.1)

    source = f"""
        A_IMM A5, {n - 1}     ; outer count (i = 1 .. n-1)
        A_IMM A6, 1           ; i
        A_IMM A1, {WB + 1}    ; &w[i]
    outer:
        LOAD_S S1, A1[0]      ; w[i] accumulator
        A_IMM A7, {BB}
        A_ADD A2, A7, A6      ; &b[0][i]
        A_ADDI A3, A1, -1     ; &w[i-1]  (k = 0)
        MOV   A0, A6          ; inner count = i
    inner:
        LOAD_S S2, A2[0]      ; b[k][i]
        LOAD_S S3, A3[0]      ; w[(i-k)-1]
        A_ADDI A2, A2, {n}    ; next row of b
        A_ADDI A3, A3, -1
        A_ADDI A0, A0, -1
        F_MUL  S2, S2, S3
        F_ADD  S1, S1, S2
        BR_NONZERO A0, inner
        STORE_S A1[0], S1
        A_ADDI A1, A1, 1
        A_ADDI A6, A6, 1
        A_ADDI A5, A5, -1
        MOV   A0, A5
        BR_NONZERO A0, outer
        HALT
    """

    w = list(w0)
    for i in range(1, n):
        acc = w[i]
        for k in range(i):
            acc = acc + b[k * n + i] * w[(i - k) - 1]
        w[i] = acc

    return Workload(
        name="LLL6",
        program=assemble(source, "LLL6"),
        initial_memory=memory_from_arrays({WB: w0, BB: b}),
        expected_outputs={"w": (WB, w)},
        description="general linear recurrence",
    )


# ----------------------------------------------------------------------
# LLL7 -- equation of state fragment
# ----------------------------------------------------------------------

def lll7(n: int = 100) -> Workload:
    """The wide, independent 19-flop expression -- maximum ILP."""
    XB, YB, ZB, UB = 1000, 2000, 3000, 4000
    r, t, q = 0.48, 0.53, 0.37
    rng = _rng(7)
    y = _values(rng, n)
    z = _values(rng, n)
    u = _values(rng, n + 6)

    source = f"""
        S_IMM S1, {r}
        MOV   T1, S1
        S_IMM S2, {t}
        MOV   T2, S2
        S_IMM S3, {q}
        MOV   T3, S3
        MOV   S1, T1          ; r
        MOV   S2, T2          ; t
        MOV   S3, T3          ; q
        A_IMM A1, {XB}
        A_IMM A2, {YB}
        A_IMM A3, {ZB}
        A_IMM A4, {UB}
        A_IMM A0, {n}
    loop:
        LOAD_S S4, A2[0]      ; y[k]
        LOAD_S S5, A3[0]      ; z[k]
        A_ADDI A2, A2, 1
        A_ADDI A3, A3, 1
        A_ADDI A0, A0, -1
        F_MUL  S4, S1, S4     ; r*y[k]
        F_ADD  S4, S5, S4     ; z[k] + r*y[k]
        F_MUL  S4, S1, S4     ; r*(...)
        LOAD_S S5, A4[1]      ; u[k+1]
        LOAD_S S6, A4[2]      ; u[k+2]
        F_MUL  S5, S1, S5
        F_ADD  S5, S6, S5
        F_MUL  S5, S1, S5
        LOAD_S S6, A4[3]      ; u[k+3]
        F_ADD  S5, S6, S5     ; u[k+3] + r*(u[k+2] + r*u[k+1])
        LOAD_S S6, A4[4]      ; u[k+4]
        LOAD_S S7, A4[5]      ; u[k+5]
        F_MUL  S6, S3, S6
        F_ADD  S6, S7, S6
        F_MUL  S6, S3, S6
        LOAD_S S7, A4[6]      ; u[k+6]
        F_ADD  S6, S7, S6     ; u[k+6] + q*(u[k+5] + q*u[k+4])
        F_MUL  S6, S2, S6     ; t * (...)
        F_ADD  S5, S5, S6
        F_MUL  S5, S2, S5     ; t * (...)
        F_ADD  S4, S4, S5
        LOAD_S S7, A4[0]      ; u[k]
        F_ADD  S4, S7, S4
        STORE_S A1[0], S4
        A_ADDI A1, A1, 1
        A_ADDI A4, A4, 1
        BR_NONZERO A0, loop
        HALT
    """

    expected = [0.0] * n
    for k in range(n):
        expected[k] = u[k] + r * (z[k] + r * y[k]) + t * (
            (u[k + 3] + r * (u[k + 2] + r * u[k + 1]))
            + t * (u[k + 6] + q * (u[k + 5] + q * u[k + 4]))
        )

    return Workload(
        name="LLL7",
        program=assemble(source, "LLL7"),
        initial_memory=memory_from_arrays({YB: y, ZB: z, UB: u}),
        expected_outputs={"x": (XB, expected)},
        description="equation of state fragment",
    )


# ----------------------------------------------------------------------
# LLL8 -- ADI integration
# ----------------------------------------------------------------------

def lll8(n: int = 16) -> Workload:
    """Alternating-direction-implicit fragment over three coupled grids."""
    stride = n + 1
    U1, U2, U3 = 1000, 2000, 3000          # u arrays, 4 x (n+1), flattened
    N1, N2, N3 = 5000, 6000, 7000          # "new" output arrays
    a = {
        "a11": 0.21, "a12": -0.09, "a13": 0.07,
        "a21": -0.05, "a22": 0.19, "a23": 0.11,
        "a31": 0.06, "a32": -0.13, "a33": 0.17,
    }
    sig = 0.25
    rng = _rng(8)
    u1 = _values(rng, 4 * stride)
    u2 = _values(rng, 4 * stride)
    u3 = _values(rng, 4 * stride)

    # Constants sit in T1..T10; each use moves the value into an S
    # register first -- the B/T traffic the paper calls out in Table 6.
    preamble_lines = []
    for slot, key in enumerate(
        ["a11", "a12", "a13", "a21", "a22", "a23", "a31", "a32", "a33"],
        start=1,
    ):
        preamble_lines.append(f"S_IMM S1, {a[key]}")
        preamble_lines.append(f"MOV T{slot}, S1")
    preamble = "\n        ".join(preamble_lines)

    def du_block() -> str:
        return """
        LOAD_S S1, A1[1]
        LOAD_S S4, A1[-1]
        F_SUB  S1, S1, S4     ; du1
        LOAD_S S2, A2[1]
        LOAD_S S4, A2[-1]
        F_SUB  S2, S2, S4     ; du2
        LOAD_S S3, A3[1]
        LOAD_S S4, A3[-1]
        F_SUB  S3, S3, S4     ; du3
        """

    def update_block(uptr: str, nptr: str, t1: int, t2: int, t3: int) -> str:
        return f"""
        MOV    S4, T{t1}
        F_MUL  S4, S4, S1     ; a_1 * du1
        MOV    S5, T{t2}
        F_MUL  S5, S5, S2     ; a_2 * du2
        F_ADD  S4, S4, S5
        MOV    S5, T{t3}
        F_MUL  S5, S5, S3     ; a_3 * du3
        F_ADD  S4, S4, S5
        LOAD_S S5, {uptr}[{stride}]
        LOAD_S S6, {uptr}[{-stride}]
        F_ADD  S5, S5, S6
        LOAD_S S6, {uptr}[0]
        F_SUB  S5, S5, S6
        F_SUB  S5, S5, S6     ; u_xp - 2u + u_xm
        F_MUL  S5, S7, S5     ; sig * (...)
        F_ADD  S4, S4, S5
        F_ADD  S4, S6, S4     ; u + ...
        STORE_S {nptr}[0], S4
        """

    bump = stride - (n - 1)  # from [kx][n-1] to [kx+1][1]
    source = f"""
        {preamble}
        S_IMM S7, {sig}
        A_IMM A7, 2           ; kx = 1, 2
        A_IMM A1, {U1 + stride + 1}
        A_IMM A2, {U2 + stride + 1}
        A_IMM A3, {U3 + stride + 1}
        A_IMM A4, {N1 + stride + 1}
        A_IMM A5, {N2 + stride + 1}
        A_IMM A6, {N3 + stride + 1}
    outer:
        A_IMM A0, {n - 1}     ; ky = 1 .. n-1
    inner:
        A_ADDI A0, A0, -1
        {du_block()}
        {update_block("A1", "A4", 1, 2, 3)}
        {update_block("A2", "A5", 4, 5, 6)}
        {update_block("A3", "A6", 7, 8, 9)}
        A_ADDI A1, A1, 1
        A_ADDI A2, A2, 1
        A_ADDI A3, A3, 1
        A_ADDI A4, A4, 1
        A_ADDI A5, A5, 1
        A_ADDI A6, A6, 1
        BR_NONZERO A0, inner
        A_ADDI A1, A1, {bump}
        A_ADDI A2, A2, {bump}
        A_ADDI A3, A3, {bump}
        A_ADDI A4, A4, {bump}
        A_ADDI A5, A5, {bump}
        A_ADDI A6, A6, {bump}
        A_ADDI A7, A7, -1
        MOV   A0, A7
        BR_NONZERO A0, outer
        HALT
    """

    def mirror(u_own, du_sources, coeffs):
        out = [0.0] * (4 * stride)
        u1l, u2l, u3l = du_sources
        c1, c2, c3 = coeffs
        for kx in (1, 2):
            for ky in range(1, n):
                idx = kx * stride + ky
                du1 = u1l[idx + 1] - u1l[idx - 1]
                du2 = u2l[idx + 1] - u2l[idx - 1]
                du3 = u3l[idx + 1] - u3l[idx - 1]
                lap = (
                    u_own[idx + stride] + u_own[idx - stride]
                    - u_own[idx] - u_own[idx]
                )
                out[idx] = u_own[idx] + (
                    ((c1 * du1 + c2 * du2) + c3 * du3) + sig * lap
                )
        return out

    sources = (u1, u2, u3)
    n1 = mirror(u1, sources, (a["a11"], a["a12"], a["a13"]))
    n2 = mirror(u2, sources, (a["a21"], a["a22"], a["a23"]))
    n3 = mirror(u3, sources, (a["a31"], a["a32"], a["a33"]))

    return Workload(
        name="LLL8",
        program=assemble(source, "LLL8"),
        initial_memory=memory_from_arrays({U1: u1, U2: u2, U3: u3}),
        expected_outputs={
            "u1new": (N1, n1), "u2new": (N2, n2), "u3new": (N3, n3),
        },
        description="ADI integration",
    )


# ----------------------------------------------------------------------
# LLL9 -- numerical integration (predictor)
# ----------------------------------------------------------------------

def lll9(n: int = 40) -> Workload:
    """13-column predictor: a wide dot product per row."""
    PX = 1000
    cols = 13
    consts = {
        "dm22": 0.20, "dm23": 0.18, "dm24": 0.16, "dm25": 0.14,
        "dm26": 0.12, "dm27": 0.10, "dm28": 0.08, "c0": 0.5,
    }
    rng = _rng(9)
    px = _values(rng, n * cols)

    preamble_lines = []
    for slot, key in enumerate(
        ["dm28", "dm27", "dm26", "dm25", "dm24", "dm23", "dm22", "c0"],
        start=1,
    ):
        preamble_lines.append(f"S_IMM S1, {consts[key]}")
        preamble_lines.append(f"MOV T{slot}, S1")
    preamble = "\n        ".join(preamble_lines)

    term_lines = []
    for slot, col in enumerate([12, 11, 10, 9, 8, 7, 6], start=1):
        term_lines.append(f"LOAD_S S2, A1[{col}]")
        term_lines.append(f"MOV    S3, T{slot}")
        term_lines.append("F_MUL  S2, S3, S2")
        if slot == 1:
            term_lines.append("MOV    S4, S2")
        else:
            term_lines.append("F_ADD  S4, S4, S2")
    terms = "\n        ".join(term_lines)

    source = f"""
        {preamble}
        A_IMM A1, {PX}
        A_IMM A0, {n}
    loop:
        A_ADDI A0, A0, -1
        {terms}
        LOAD_S S2, A1[4]
        LOAD_S S3, A1[5]
        F_ADD  S2, S2, S3
        MOV    S3, T8         ; c0
        F_MUL  S2, S3, S2
        F_ADD  S4, S4, S2
        LOAD_S S2, A1[2]
        F_ADD  S4, S4, S2
        STORE_S A1[0], S4
        A_ADDI A1, A1, {cols}
        BR_NONZERO A0, loop
        HALT
    """

    out = list(px)
    for i in range(n):
        row = i * cols
        acc = consts["dm28"] * px[row + 12]
        for key, col in [
            ("dm27", 11), ("dm26", 10), ("dm25", 9),
            ("dm24", 8), ("dm23", 7), ("dm22", 6),
        ]:
            acc = acc + consts[key] * px[row + col]
        acc = acc + consts["c0"] * (px[row + 4] + px[row + 5])
        acc = acc + px[row + 2]
        out[row] = acc

    return Workload(
        name="LLL9",
        program=assemble(source, "LLL9"),
        initial_memory=memory_from_arrays({PX: px}),
        expected_outputs={"px": (PX, out)},
        description="numerical integration",
    )


# ----------------------------------------------------------------------
# LLL10 -- numerical differentiation (difference predictors)
# ----------------------------------------------------------------------

def lll10(n: int = 40) -> Workload:
    """A serial cascade of differences along each row."""
    PX, CX = 1000, 3000
    cols = 14
    rng = _rng(10)
    px = _values(rng, n * cols)
    cx = _values(rng, n * cols)

    # ar/br/cr rotate through S1, S3, S4: at each step the new
    # difference is computed and the previous value stored back.
    steps = []
    regs = ["S1", "S3", "S4"]
    for idx, col in enumerate(range(4, 13)):
        prev = regs[idx % 3]
        new = regs[(idx + 1) % 3]
        steps.append(f"LOAD_S S2, A1[{col}]")
        steps.append(f"F_SUB  {new}, {prev}, S2")
        steps.append(f"STORE_S A1[{col}], {prev}")
    final_reg = regs[(len(range(4, 13))) % 3]
    cascade = "\n        ".join(steps)

    source = f"""
        A_IMM A1, {PX}
        A_IMM A2, {CX}
        A_IMM A0, {n}
    loop:
        LOAD_S S1, A2[4]      ; ar = cx[i][4]
        A_ADDI A0, A0, -1
        {cascade}
        STORE_S A1[13], {final_reg}
        A_ADDI A1, A1, {cols}
        A_ADDI A2, A2, {cols}
        BR_NONZERO A0, loop
        HALT
    """

    out = list(px)
    for i in range(n):
        row = i * cols
        carry = cx[row + 4]
        for col in range(4, 13):
            new = carry - out[row + col]
            out[row + col] = carry
            carry = new
        out[row + 13] = carry

    return Workload(
        name="LLL10",
        program=assemble(source, "LLL10"),
        initial_memory=memory_from_arrays({PX: px, CX: cx}),
        expected_outputs={"px": (PX, out)},
        description="numerical differentiation",
    )


# ----------------------------------------------------------------------
# LLL11 -- first sum (prefix sum)
# ----------------------------------------------------------------------

def lll11(n: int = 200) -> Workload:
    """``x[k] = x[k-1] + y[k]`` with the carry held in a register."""
    XB, YB = 1000, 2000
    rng = _rng(11)
    y = _values(rng, n, low=0.001, high=0.01)

    source = f"""
        S_IMM S1, 0.0         ; running sum
        A_IMM A1, {XB}
        A_IMM A2, {YB}
        A_IMM A0, {n}
    loop:
        LOAD_S S2, A2[0]
        A_ADDI A2, A2, 1
        A_ADDI A0, A0, -1
        F_ADD  S1, S1, S2
        STORE_S A1[0], S1
        A_ADDI A1, A1, 1
        BR_NONZERO A0, loop
        HALT
    """

    expected = [0.0] * n
    carry = 0.0
    for k in range(n):
        carry = carry + y[k]
        expected[k] = carry

    return Workload(
        name="LLL11",
        program=assemble(source, "LLL11"),
        initial_memory=memory_from_arrays({YB: y}),
        expected_outputs={"x": (XB, expected)},
        description="first sum",
    )


# ----------------------------------------------------------------------
# LLL12 -- first difference
# ----------------------------------------------------------------------

def lll12(n: int = 200) -> Workload:
    """``x[k] = y[k+1] - y[k]`` -- fully parallel."""
    XB, YB = 1000, 2000
    rng = _rng(12)
    y = _values(rng, n + 1)

    source = f"""
        A_IMM A1, {XB}
        A_IMM A2, {YB}
        A_IMM A0, {n}
    loop:
        LOAD_S S2, A2[1]
        LOAD_S S3, A2[0]
        A_ADDI A2, A2, 1
        A_ADDI A0, A0, -1
        F_SUB  S4, S2, S3
        STORE_S A1[0], S4
        A_ADDI A1, A1, 1
        BR_NONZERO A0, loop
        HALT
    """

    expected = [y[k + 1] - y[k] for k in range(n)]

    return Workload(
        name="LLL12",
        program=assemble(source, "LLL12"),
        initial_memory=memory_from_arrays({YB: y}),
        expected_outputs={"x": (XB, expected)},
        description="first difference",
    )


# ----------------------------------------------------------------------
# LLL13 -- 2-D particle in cell
# ----------------------------------------------------------------------

def lll13(n_particles: int = 48, grid: int = 8) -> Workload:
    """Indirect gathers from two grids and a histogram scatter."""
    PB, BB, CB, HB = 1000, 3000, 4000, 5000
    fields = 4   # i1, j1, val1, val2 per particle
    mask = grid - 1
    rng = _rng(13)
    p_words = [0] * (n_particles * fields)
    p_words[0::fields] = rng.integers(0, grid, n_particles)       # i1
    p_words[1::fields] = rng.integers(0, grid, n_particles)       # j1
    p_words[2::fields] = _values(rng, n_particles)
    p_words[3::fields] = _values(rng, n_particles)
    b = _values(rng, grid * grid)
    c = _values(rng, grid * grid)

    source = f"""
        S_IMM S6, {mask}      ; wrap mask, via the logical unit
        S_IMM S1, 1.0
        A_IMM A1, {PB}
        A_IMM A7, {grid}
        A_IMM A0, {n_particles}
    loop:
        LOAD_A A3, A1[0]      ; i1
        LOAD_A A4, A1[1]      ; j1
        A_ADDI A0, A0, -1
        A_MUL  A5, A4, A7     ; j1 * grid (address multiply unit)
        A_ADD  A5, A5, A3
        A_IMM  A6, {BB}
        A_ADD  A6, A6, A5
        LOAD_S S2, A6[0]      ; b[j1][i1]
        LOAD_S S3, A1[2]
        F_ADD  S3, S3, S2
        STORE_S A1[2], S3
        A_IMM  A6, {CB}
        A_ADD  A6, A6, A5
        LOAD_S S2, A6[0]      ; c[j1][i1]
        LOAD_S S3, A1[3]
        F_ADD  S3, S3, S2
        STORE_S A1[3], S3
        A_ADDI A3, A3, 1      ; i2 = (i1 + 1) & mask
        MOV    S4, A3
        S_AND  S4, S4, S6
        MOV    A3, S4
        STORE_A A1[0], A3     ; particle moves
        A_MUL  A5, A4, A7
        A_ADD  A5, A5, A3
        A_IMM  A6, {HB}
        A_ADD  A6, A6, A5
        LOAD_S S2, A6[0]      ; h[j1][i2] += 1.0
        F_ADD  S2, S2, S1
        STORE_S A6[0], S2
        A_ADDI A1, A1, {fields}
        BR_NONZERO A0, loop
        HALT
    """

    p_out = list(p_words)
    h = [0.0] * (grid * grid)
    for ip in range(n_particles):
        row = ip * fields
        i1 = p_out[row]
        j1 = p_out[row + 1]
        p_out[row + 2] = p_out[row + 2] + b[j1 * grid + i1]
        p_out[row + 3] = p_out[row + 3] + c[j1 * grid + i1]
        i2 = (i1 + 1) & mask
        p_out[row] = i2
        h[j1 * grid + i2] += 1.0

    return Workload(
        name="LLL13",
        program=assemble(source, "LLL13"),
        initial_memory=memory_from_arrays({PB: p_words, BB: b, CB: c}),
        expected_outputs={
            "p": (PB, [float(v) for v in p_out]),
            "h": (HB, h),
        },
        description="2-D particle in cell",
    )


# ----------------------------------------------------------------------
# LLL14 -- 1-D particle in cell
# ----------------------------------------------------------------------

def lll14(n: int = 100, cells: int = 32) -> Workload:
    """Gather, integrate, scatter-accumulate with aliasing on ``rh``."""
    IR, VX, XX, EX, RH = 1000, 2000, 3000, 4000, 5000
    mask = cells - 1
    rng = _rng(14)
    ir = rng.integers(0, cells, n)
    vx = _values(rng, n, low=0.01, high=0.1)
    xx = _values(rng, n)
    ex = _values(rng, cells)

    source = f"""
        S_IMM S6, {mask}
        S_IMM S1, 1.0
        A_IMM A1, {IR}
        A_IMM A2, {VX}
        A_IMM A3, {XX}
        A_IMM A0, {n}
    loop:
        LOAD_A A4, A1[0]      ; ix
        A_ADDI A0, A0, -1
        A_IMM  A5, {EX}
        A_ADD  A5, A5, A4
        LOAD_S S2, A5[0]      ; ex[ix]
        LOAD_S S3, A2[0]      ; vx[k]
        F_ADD  S3, S3, S2
        STORE_S A2[0], S3     ; vx[k] += ex[ix]
        LOAD_S S4, A3[0]      ; xx[k]
        F_ADD  S4, S4, S3
        STORE_S A3[0], S4     ; xx[k] += vx[k]
        A_IMM  A6, {RH}
        A_ADD  A6, A6, A4
        LOAD_S S5, A6[0]      ; rh[ix] += 1.0 (aliased scatter)
        F_ADD  S5, S5, S1
        STORE_S A6[0], S5
        A_ADDI A4, A4, 1      ; ir[k] = (ix + 1) & mask
        MOV    S5, A4
        S_AND  S5, S5, S6
        MOV    A4, S5
        STORE_A A1[0], A4
        A_ADDI A1, A1, 1
        A_ADDI A2, A2, 1
        A_ADDI A3, A3, 1
        BR_NONZERO A0, loop
        HALT
    """

    ir_out = list(ir)
    vx_out = list(vx)
    xx_out = list(xx)
    rh = [0.0] * cells
    for k in range(n):
        ix = ir_out[k]
        vx_out[k] = vx_out[k] + ex[ix]
        xx_out[k] = xx_out[k] + vx_out[k]
        rh[ix] += 1.0
        ir_out[k] = (ix + 1) & mask

    return Workload(
        name="LLL14",
        program=assemble(source, "LLL14"),
        initial_memory=memory_from_arrays(
            {IR: ir, VX: vx, XX: xx, EX: ex}
        ),
        expected_outputs={
            "vx": (VX, vx_out),
            "xx": (XX, xx_out),
            "rh": (RH, rh),
            "ir": (IR, [float(v) for v in ir_out]),
        },
        description="1-D particle in cell",
    )


#: Factories for LLL1..LLL14, keyed by loop number.
LIVERMORE_FACTORIES: Dict[int, Callable[..., Workload]] = {
    1: lll1, 2: lll2, 3: lll3, 4: lll4, 5: lll5, 6: lll6, 7: lll7,
    8: lll8, 9: lll9, 10: lll10, 11: lll11, 12: lll12, 13: lll13, 14: lll14,
}


def all_loops() -> List[Workload]:
    """Instantiate LLL1..LLL14 at their default sizes."""
    return [factory() for factory in LIVERMORE_FACTORIES.values()]
