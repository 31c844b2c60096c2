import json
import subprocess
import sys
from pathlib import Path

import pytest

PY = [sys.executable, "-m", "endolab.cli"]


def run(*args):
    return subprocess.run(PY + list(args), capture_output=True, text=True)


def test_quadspace_diag():
    r = run("quadspace", "--diag", "1,1,1,1,1,-1,-1")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    w = out["witnesses"][0]
    assert w["dim"] == 7 and w["signature"] == [5, 2]


def test_quadspace_gram_hyperbolic():
    r = run("quadspace", "--gram", "[[0,1],[1,0]]")
    assert r.returncode == 0
    w = json.loads(r.stdout)["witnesses"][0]
    assert w["discriminant"] == 1


def test_quadspace_gram_rational_entries():
    r = run("quadspace", "--gram", '[["1/2","0"],["0","-2/3"]]')
    assert r.returncode == 0
    w = json.loads(r.stdout)["witnesses"][0]
    assert w["dim"] == 2 and w["signature"] == [1, 1]
    assert w["discriminant"] == 3  # -(1/2)(-2/3) = 1/3 ~ 3


def test_quadspace_negative_values_space_separated():
    spaced = run("quadspace", "--diag", "-4,-16,3,1,-18")
    assert spaced.returncode == 0
    assert spaced.stdout == run("quadspace", "--diag=-4,-16,3,1,-18").stdout
    assert json.loads(spaced.stdout)["witnesses"][0]["signature"] == [2, 3]
    gram = run("quadspace", "--gram", '[["-1/2","0"],["0","3"]]')
    assert gram.returncode == 0
    assert json.loads(gram.stdout)["witnesses"][0]["signature"] == [1, 1]


def test_quadspace_bad_input_exit2():
    assert run("quadspace", "--diag", "1,0,1").returncode == 2
    assert run("quadspace", "--gram", "not json").returncode == 2
    assert run("quadspace").returncode == 2


@pytest.mark.parametrize(
    "argv,error",
    [
        (["--gram", "5"], "the --gram matrix must be a square list of rows, got 5"),
        (["--gram", "[[1,2],[2]]"], "the --gram matrix must be a square list of rows, got [[1,2],[2]]"),
        (["--gram", "[[]]"], "the --gram matrix must be a square list of rows, got [[]]"),
        (["--gram", "[[1,2]]"], "the --gram matrix must be a square list of rows, got [[1,2]]"),
        (["--diag", "1/0"], "the denominator must not be zero, got '1/0'"),
        (["--gram", '[["1/0"]]'], "the denominator must not be zero, got '1/0'"),
        (["--diag", "1,2", "--gram", "[[1]]"], "give --diag or --gram, not both"),
    ],
)
def test_quadspace_malformed_input_is_an_input_error(capsys, argv, error):
    """These used to end in a traceback with exit 1, or, for a 1 x 2 matrix
    and for both flags, to pass on a form the user did not give."""
    from endolab import cli

    assert cli.main(["quadspace", *argv]) == 2
    out = json.loads(capsys.readouterr().out)
    assert (out["command"], out["status"]) == ("quadspace", "error")
    assert out["witnesses"] == [{"error": error}]


def test_endoscopy_table():
    r = run("endoscopy", "--d", "7")
    assert r.returncode == 0
    rows = json.loads(r.stdout)["witnesses"]
    assert len(rows) == 2
    assert {row["iota"] for row in rows} == {"1", "1/2"}


def test_endoscopy_levi_tsv():
    r = run("endoscopy", "--d", "8", "--levi", "M12", "--format", "tsv")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0].startswith("A\t")
    assert len(lines) > 1


def test_endoscopy_bad_d():
    assert run("endoscopy", "--d", "5").returncode == 2


@pytest.mark.parametrize(
    "context,delta,error",
    [
        ("global:", "3", "delta 3 is ramified at 3, outside the support []"),
        ("global:3", "6", "delta 6 is ramified at 2, outside the support [3]"),
    ],
    ids=["empty-support", "2-outside-support-3"],
)
def test_endoscopy_delta_outside_the_global_support_is_an_input_error(capsys, context, delta, error):
    """These used to pass and list data ramified outside the support, such as
    deltaplus -3 for the empty support and deltaminus -2 for the support 3."""
    from endolab import cli

    for levi in ([], ["--levi", "M12"]):
        assert cli.main(["endoscopy", "--d", "8", "--context", context, "--delta", delta, *levi]) == 2
        out = json.loads(capsys.readouterr().out)
        assert (out["command"], out["status"]) == ("endoscopy", "error")
        assert out["witnesses"] == [{"error": error}]


@pytest.mark.parametrize(
    "context,error",
    [
        ("global:-3", "support entry -3 is not prime"),
        ("global:0", "support entry 0 is not prime"),
        ("global:1,4", "support entry 1 is not prime"),
        ("global:3,3", "support [3, 3] repeats a prime"),
    ],
)
def test_endoscopy_global_support_must_be_distinct_primes(capsys, context, error):
    """These used to pass, reporting unramifiedness at -3 or listing 3 twice."""
    from endolab import cli

    assert cli.main(["endoscopy", "--d", "9", "--context", context]) == 2
    out = json.loads(capsys.readouterr().out)
    assert (out["command"], out["status"]) == ("endoscopy", "error")
    assert out["witnesses"] == [{"error": error}]


def test_endoscopy_delta_inside_the_global_support_passes(capsys):
    from endolab import cli

    assert cli.main(["endoscopy", "--d", "8", "--context", "global:3", "--delta", "-12"]) == 0
    rows = json.loads(capsys.readouterr().out)["witnesses"]
    assert rows and all(
        set(map(abs, (row["deltaplus"], row["deltaminus"]))) <= {1, 3} for row in rows
    )


def test_signs_table():
    r = run("signs")
    assert r.returncode == 0
    assert "sun_identity" in r.stdout.splitlines()[0]
    assert "False" not in r.stdout


def test_signs_negative_m_minus_max_is_an_input_error(capsys):
    """It used to print only the header and pass with 0 rows."""
    from endolab import cli

    assert cli.main(["signs", "--m-minus-max", "-1"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert (out["command"], out["status"]) == ("signs", "error")
    assert out["witnesses"] == [{"error": "--m-minus-max must be >= 0, got -1"}]


def test_verify_suites_quick():
    assert run("verify", "vanishing", "--r", "3", "--trials", "2", "--seed", "1").returncode == 0
    assert run("verify", "waldspurger", "--configs", "30", "--seed", "2").returncode == 0
    assert run("verify", "signs").returncode == 0
    assert run("verify", "invariants").returncode == 0
    assert run("verify", "arch", "--d", "7", "--case", "M2", "--samples", "2", "--seed", "5").returncode == 0
    assert run("verify", "satake", "--d", "7", "--a", "1").returncode == 0
    assert run("verify", "hilbert", "--pairs", "40", "--seed", "3").returncode == 0
    assert run("verify", "kostant", "--max-rank", "2", "--max-coord", "1").returncode == 0


def test_verify_unknown_suite_exit2():
    assert run("verify", "nonsense").returncode == 2


def _verify(capsys, *argv):
    from endolab import cli

    code = cli.main(["verify", *argv])
    return code, json.loads(capsys.readouterr().out)


def test_verify_reports_count_checks_and_bound_parameters(capsys):
    code, out = _verify(capsys, "signs")
    assert code == 0 and out["parameters"] == {} and "seed" not in out
    assert out["checks"]["sun identity"] == {"checked": 112, "failed": 0, "skipped": {}}
    code, out = _verify(capsys, "waldspurger", "--configs", "3", "--seed", "2")
    assert out["parameters"] == {"configs": 3, "seed": 2} and out["seed"] == 2
    assert out["checks"]["raw against reduced"]["checked"] == 3
    code, out = _verify(capsys, "satake", "--pairs", "3")
    assert code == 2 and out["status"] == "error"
    assert out["command"] == "verify satake" and out["parameters"] == {"pairs": 3}
    assert out["witnesses"] == [{"error": "verify satake takes no parameter pairs"}]


@pytest.mark.parametrize(
    "argv",
    [
        ["satake", "--a", "0"],
        ["satake", "--d", "0"],
        ["arch", "--d", "0", "--samples", "1"],
        ["vanishing", "--r", "0"],
    ],
    ids=["satake-a", "satake-d", "arch-d", "vanishing-r"],
)
def test_verify_optional_parameter_out_of_range_is_a_usage_error(capsys, argv):
    """0 used to read as "not given": the run checked the whole default sweep
    and passed while its report said a = 0, d = 0 or r = 0."""
    code, out = _verify(capsys, *argv)
    assert (code, out["status"], out["checks"]) == (2, "error", {}), argv
    assert out["command"] == f"verify {argv[0]}"
    flag = argv[1]
    assert out["parameters"][flag[2:]] == 0
    assert out["witnesses"][-1]["error"].startswith(f"{flag} must be >= ")


@pytest.mark.parametrize(
    "flag, key, value, low",
    [("--max-rank", "max_rank", 1, 2), ("--max-coord", "max_coord", -1, 0)],
)
def test_verify_kostant_range_is_a_usage_error(capsys, flag, key, value, low):
    """Both used to end in "no case checked" instead of naming the flag."""
    code, out = _verify(capsys, "kostant", flag, str(value))
    assert (code, out["status"], out["checks"]) == (2, "error", {})
    assert out["parameters"][key] == value
    assert out["witnesses"] == [{"error": f"{flag} must be >= {low}, got {value}"}]


@pytest.mark.parametrize("max_rank", [8, 9, 40])
def test_verify_kostant_max_rank_above_the_weyl_limit_is_refused_first(capsys, monkeypatch, max_rank):
    """--max-rank 9 used to run every identity and list W(B_8), 10,321,920
    elements, before the walk of W refused rank 9, and rank 8 would list
    W(B_8) for the Weyl numerator.  Neither identity, nor the Weyl numerator
    that lists W, runs before the refusal."""
    from endolab import rootdata

    def never(*args):
        raise AssertionError("the suite ran a case before checking --max-rank")

    monkeypatch.setattr(rootdata, "kostant_euler_identity", never)
    monkeypatch.setattr(rootdata, "weyl_numerator", never)
    code, out = _verify(capsys, "kostant", "--max-rank", str(max_rank), "--max-coord", "0")
    assert (code, out["status"], out["checks"]) == (2, "error", {})
    assert out["witnesses"] == [{"error": f"--max-rank must be <= {rootdata.MAX_WEYL_RANK}, got {max_rank}"}]


def test_verify_kostant_max_coord_0_is_checked(capsys):
    code, out = _verify(capsys, "kostant", "--max-rank", "2", "--max-coord", "0")
    assert (code, out["status"]) == (0, "pass")
    assert out["checks"]["Kostant identity"]["checked"] > 0


def test_verify_zero_cases_is_an_error(capsys):
    for argv in (["arch", "--d", "8", "--case", "M2"], ["vanishing", "--case", "even", "--r", "5"]):
        code, out = _verify(capsys, *argv)
        assert (code, out["status"], out["checks"]) == (2, "error", {}), argv


def test_verify_satake_fails_on_broken_transfer(capsys, monkeypatch):
    from endolab import cli, hecke
    from endolab.errors import ExactDomainError

    def broken(f, levi_group):
        raise ExactDomainError("broken constant term")

    monkeypatch.setattr(hecke, "constant_term", broken)
    code, out = _verify(capsys, "satake", *cli.ACCEPTANCE["satake"])
    assert code == 2 and out["status"] == "error"
    assert out["command"] == "verify satake"
    assert out["witnesses"][-1] == {
        "d": 7, "levi": "M1", "A": [], "a": 1, "base": [1, 3], "error": "broken constant term"
    }


def test_verify_satake_error_names_the_case(capsys, monkeypatch):
    """An error inside compute_fH_at_p used to surface as a bare error."""
    from endolab import hecke
    from endolab.errors import ExactDomainError

    real = hecke.compute_fH_at_p
    seen = []

    def broken_at_M12(levi, parity, m, mp, mm, A, a, **kw):
        if levi == "M12" and A == [2]:
            seen.append((m, mp, mm))
            raise ExactDomainError("broken at M12")
        return real(levi, parity, m, mp, mm, A, a, **kw)

    monkeypatch.setattr(hecke, "compute_fH_at_p", broken_at_M12)
    code, out = _verify(capsys, "satake", "--d", "8", "--a", "2")
    assert (code, out["status"], out["command"]) == (2, "error", "verify satake")
    [(m, mp, mm)] = seen
    [witness] = out["witnesses"]
    bp, bm = witness.pop("base")
    assert witness == {"d": 8, "levi": "M12", "A": [2], "a": 2, "error": "broken at M12"}
    assert (m, bp + bm, bp // 2 + 1) == (4, 8 - 2 * 2, mp)  # the base the failing call was made for
    assert out["checks"]["k(A) table"]["checked"] > 0  # the M1 and M2 cases before it ran


def test_verify_error_report_names_the_run(capsys):
    code, out = _verify(capsys, "vanishing", "--case", "M1")
    assert (code, out["status"]) == (2, "error")
    assert out["command"] == "verify vanishing"
    assert out["parameters"] == {"case": "M1", "seed": 7, "trials": 20}
    assert out["checks"] == {}


@pytest.mark.parametrize("samples", [1, 2])
def test_verify_arch_error_names_the_case(capsys, samples):
    """A non-dominant weight used to surface as a bare "cone-wall input",
    whatever the number of samples."""
    code, out = _verify(capsys, "arch", "--d", "7", "--lambda", "1,2,3", "--samples", str(samples))
    assert (code, out["status"], out["checks"]) == (2, "error", {})
    assert out["witnesses"] == [
        {"levi": "M1", "d": 7, "lambda": [1, 2, 3], "error": "need a dominant integral highest weight"}
    ]


def test_verify_vanishing_error_names_the_case(capsys):
    """The 14-element refusal used to surface as a bare error."""
    code, out = _verify(capsys, "vanishing", "--case", "odd", "--r", "16", "--t", "0", "--trials", "1")
    assert (code, out["status"], out["checks"]) == (2, "error", {})
    [witness] = out["witnesses"]
    assert witness["error"] == "partition enumeration refused beyond 14 elements"
    assert {k: witness[k] for k in ("parity", "r", "t", "split")} == {"parity": "odd", "r": 16, "t": 0, "split": 0}
    assert len(witness["mu"]) == 16 and set(witness) == {"parity", "r", "t", "split", "mu", "error"}


def test_verify_quasisplit_error_names_the_case(capsys, monkeypatch):
    """An error inside the oracle used to surface as a bare "broken oracle"."""
    from endolab import quadspace
    from endolab.errors import ExactDomainError

    real = quadspace.is_quasi_split_oracle

    def broken_at_5(q, p):
        if p == 5 and q.dim == 3:
            raise ExactDomainError("broken oracle")
        return real(q, p)

    monkeypatch.setattr(quadspace, "is_quasi_split_oracle", broken_at_5)
    code, out = _verify(capsys, "quasisplit")
    assert (code, out["status"], out["command"]) == (2, "error", "verify quasisplit")
    assert out["witnesses"] == [{"diag": ["1", "1", "1"], "p": 5, "error": "broken oracle"}]
    # every form at p = 3 and those of dimension 1 and 2 at p = 5 ran before it
    assert out["checks"]["quasi-split against the oracle"]["checked"] == 8034


def test_verify_hilbert_product_error_names_the_pair(capsys, monkeypatch):
    from endolab import exactnum
    from endolab.errors import ExactDomainError

    real = exactnum.hilbert_symbol
    seen = []

    def broken_at_fifth_pair(a, b, v):
        if (a, b) not in seen:
            seen.append((a, b))
        if len(seen) == 5:
            raise ExactDomainError("broken symbol")
        return real(a, b, v)

    monkeypatch.setattr(exactnum, "hilbert_symbol", broken_at_fifth_pair)
    code, out = _verify(capsys, "hilbert", "--pairs", "20", "--seed", "404")
    assert (code, out["status"], out["command"]) == (2, "error", "verify hilbert")
    a, b = seen[-1]
    assert out["witnesses"] == [{"a": a, "b": b, "error": "broken symbol"}]
    assert out["checks"]["product formula"]["checked"] == 4


@pytest.mark.parametrize(
    "broken, checked",
    [((10, 1), ("existence criterion", 7)), ((16, 2), ("existence, d = 0 mod 8", 1))],
)
def test_verify_hilbert_existence_error_names_the_case(capsys, monkeypatch, broken, checked):
    from endolab import quadspace
    from endolab.errors import ExactDomainError

    real = quadspace.exists_global_form

    def broken_at(d, det):
        if (d, det) == broken:
            raise ExactDomainError("broken criterion")
        return real(d, det)

    monkeypatch.setattr(quadspace, "exists_global_form", broken_at)
    code, out = _verify(capsys, "hilbert", "--pairs", "5")
    assert (code, out["status"], out["command"]) == (2, "error", "verify hilbert")
    assert out["witnesses"] == [{"d": broken[0], "det": broken[1], "error": "broken criterion"}]
    name, count = checked
    assert out["checks"][name]["checked"] == count


def test_verify_arch_lambda_sweeps_only_its_rank(capsys):
    """A weight of length 3 used to run at d = 8 too, and fail there."""
    code, out = _verify(capsys, "arch", "--lambda", "3,2,1", "--samples", "1")
    assert (code, out["status"], out["witnesses"]) == (0, "pass", [])
    assert out["checks"]["comparison identity"]["checked"] == 3  # M1, M2, M12 at d = 7
    code, out = _verify(capsys, "arch", "--lambda", "2,1,0,0", "--case", "M1", "--samples", "1")
    assert (code, out["checks"]["comparison identity"]["checked"]) == (0, 2)  # d = 8, 9
    code, out = _verify(capsys, "arch", "--lambda", "3,2,1,0,0,0", "--samples", "1")
    assert (code, out["status"], out["checks"]) == (2, "error", {})
    assert out["witnesses"] == [{"error": "no d in 7..10 has rank 6, the length of --lambda"}]


def test_verify_arch_bad_lambda_names_the_run(capsys):
    """A non-integer coordinate used to print a report without the suite's
    name or parameters."""
    code, out = _verify(capsys, "arch", "--lambda", "3,x,1", "--samples", "1")
    assert (code, out["status"], out["checks"]) == (2, "error", {})
    assert out["command"] == "verify arch"
    assert out["parameters"] == {"lam": "3,x,1", "range": "stated", "samples": 1, "seed": 7}
    assert out["witnesses"] == [{"error": "--lambda takes comma-separated integers, got '3,x,1'"}]


def test_commands_load_only_their_modules():
    """`import endolab.cli` loads no other endolab module but `errors` and
    `value`, and commands that need neither the root data nor the Hecke or
    archimedean layers never load them; `verify arch` is the control that
    does.  No command, and no interpreter that imports every endolab module,
    loads `dataclasses` or `inspect`, nor a process pool's modules
    (`concurrent.futures`, `multiprocessing`), not even a `verify arch` of
    three cases: counted against the modules present before endolab, so a
    `site` hook that loads them is not blamed."""
    barred = (
        "barred = lambda: sorted({'dataclasses', 'inspect', 'concurrent.futures', 'multiprocessing'}"
        " & set(sys.modules) - before)\n"
    )
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import contextlib, io, json\n"
        "endolab = lambda: sorted(m[8:] for m in sys.modules if m.startswith('endolab.'))\n"
        + barred
        + "from endolab import cli\n"
        "at_import = endolab()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([at_import, code, endolab(), barred()]))\n"
    )

    def loaded(*argv):
        r = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        at_import, code, modules, barred_loaded = json.loads(r.stdout)
        assert (at_import, code, barred_loaded) == (["cli", "errors", "value"], 0, []), argv
        return set(modules)

    heavy = {"rootdata", "archcmp", "hecke"}
    for argv in (
        ["signs", "--m-minus-max", "1"],
        ["verify", "hilbert", "--pairs", "5"],
        ["verify", "vanishing", "--r", "3", "--trials", "1"],
        ["quadspace", "--diag=1,-2,3"],
        ["endoscopy", "--d", "9", "--context", "global:3,5"],
    ):
        assert not heavy & loaded(*argv), argv
    assert {"rootdata", "archcmp"} <= loaded("verify", "arch", "--d", "7", "--case", "M2", "--samples", "1")
    assert {"rootdata", "archcmp"} <= loaded("verify", "arch", "--d", "7", "--samples", "1")

    src = Path(__file__).resolve().parents[1] / "src" / "endolab"
    every = sorted(p.stem for p in src.glob("*.py") if p.stem != "__init__")
    assert {"cli", "hecke", "rootdata", "value"} <= set(every)
    probe_all = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import importlib\n"
        + barred
        + "for name in sys.argv[1:]:\n"
        "    importlib.import_module('endolab.' + name)\n"
        "print(barred())\n"
    )
    r = subprocess.run([sys.executable, "-c", probe_all, *every], capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, "[]\n"), r.stderr


def test_verify_kostant_error_names_the_case(capsys, monkeypatch):
    """An error inside the Kostant identity used to surface as a bare error."""
    from endolab import rootdata
    from endolab.errors import ExactDomainError

    real = rootdata.kostant_euler_identity

    def broken_at(datum, levi, lam):
        if (datum.kind, datum.rank, levi, lam.doubled) == ("D", 3, rootdata.standard_levi("M1", 3), (2, 2, -2)):
            raise ExactDomainError("broken identity")
        return real(datum, levi, lam)

    monkeypatch.setattr(rootdata, "kostant_euler_identity", broken_at)
    code, out = _verify(capsys, "kostant", "--max-rank", "3", "--max-coord", "1")
    assert (code, out["status"], out["command"]) == (2, "error", "verify kostant")
    assert out["witnesses"] == [{"kind": "D", "m": 3, "levi": "M1", "lambda": [1, 1, -1], "error": "broken identity"}]
    assert out["checks"]["Kostant identity"]["checked"] > 0  # the B cases and D2 before it


@pytest.mark.parametrize(
    "name, at, named",
    [
        (
            "check_sun_identity",
            lambda case, A: (case.levi, case.parity, case.m_minus, list(A)) == ("M12", "even", 2, [1, 2]),
            {"levi": "M12", "parity": "even", "mm": 2, "A": [1, 2]},
        ),
        ("whittaker_comparison_sign", lambda case, kind: (case.m, case.m_plus) == (6, 4), {"m": 6, "m_plus": 4}),
        ("parity_lemma_holds", lambda m, p: (m, p) == (4, 0), {"m": 4, "p": 0}),
    ],
    ids=["sun identity", "Whittaker type II", "parity lemma"],
)
def test_verify_signs_error_names_the_case(capsys, monkeypatch, name, at, named):
    from endolab import signs
    from endolab.errors import ExactDomainError

    real = getattr(signs, name)

    def broken(*args):
        if at(*args):
            raise ExactDomainError("broken sign")
        return real(*args)

    monkeypatch.setattr(signs, name, broken)
    code, out = _verify(capsys, "signs")
    assert (code, out["status"], out["command"]) == (2, "error", "verify signs")
    assert out["witnesses"] == [{**named, "error": "broken sign"}]


def test_verify_waldspurger_error_names_the_case(capsys, monkeypatch):
    from endolab import signs
    from endolab.errors import ExactDomainError

    real = signs.waldspurger_sign_reduced
    seen = []

    def broken_at_third(y, m_minus, eta):
        seen.append(([str(v) for v in y], m_minus, eta))
        if len(seen) == 3:
            raise ExactDomainError("broken sign")
        return real(y, m_minus, eta)

    monkeypatch.setattr(signs, "waldspurger_sign_reduced", broken_at_third)
    code, out = _verify(capsys, "waldspurger", "--configs", "5", "--seed", "505")
    assert (code, out["status"], out["command"]) == (2, "error", "verify waldspurger")
    y, m_minus, eta = seen[-1]
    assert out["witnesses"] == [{"y": y, "m_minus": m_minus, "eta": eta, "error": "broken sign"}]
    assert out["checks"]["raw against reduced"]["checked"] == 2


def test_verify_invariants_error_names_the_case(capsys, monkeypatch):
    from endolab import endoscopy
    from endolab.errors import ExactDomainError

    real = endoscopy.tau_k_identity_check
    seen = []

    def broken_at(levi, g, d):
        if (d, levi) == (9, "M12"):
            seen.append((sorted(g.A), [g.base.d_plus, g.base.d_minus]))
            raise ExactDomainError("broken identity")
        return real(levi, g, d)

    monkeypatch.setattr(endoscopy, "tau_k_identity_check", broken_at)
    code, out = _verify(capsys, "invariants")
    assert (code, out["status"], out["command"]) == (2, "error", "verify invariants")
    [(A, base)] = seen
    assert out["witnesses"] == [{"d": 9, "levi": "M12", "A": A, "base": base, "error": "broken identity"}]
    assert out["checks"]["tau-k identity"]["checked"] > 0  # d = 7, 8 and the M1, M2 cases of d = 9


@pytest.mark.parametrize(
    "module, name, wrong",
    [
        # the truncation <mu, pi> > 0, its -<rho, pi> shift dropped
        ("archcmp", "passes_truncation", lambda real: lambda datum, mu, pi: mu.pairing_doubled(pi) > 0),
        ("archcmp", "kostant_cohomology", lambda real: lambda *a: [(deg + 1, mu) for deg, mu in real(*a)]),
        # the first coset representative, the identity, dropped
        ("rootdata", "_kostant_table", lambda real: lambda datum, levi: real(datum, levi)[1:]),
        # the reversed GL_2 head of each M1 entry, (chi_2, chi_1), with chi_2 < chi_1
        (
            "archcmp", "_kostant_entries",
            lambda real: lambda *a: {key: c for key, c in real(*a).items() if a[2] != "M1" or key[0][0] > key[0][1]},
        ),
    ],
    ids=["rho shift dropped", "degree parity flipped", "W^M entry dropped", "M1 reversed head dropped"],
)
def test_verify_kostant_fails_on_wrong_truncated_entries(capsys, monkeypatch, module, name, wrong):
    """Negative controls: each fault in the entries that verify arch
    evaluates fails the truncated Kostant entries, and the suite fails."""
    import importlib

    owner = importlib.import_module(f"endolab.{module}")
    monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
    code, out = _verify(capsys, "kostant", "--max-rank", "3", "--max-coord", "1")
    assert (code, out["status"]) == (1, "fail")
    assert out["checks"]["truncated Kostant entries"]["failed"] > 0


@pytest.mark.parametrize(
    "target, name, wrong, argv, checks, witnesses",
    [
        (
            "signs", "parity_lemma_holds",
            lambda real: lambda m, p: (m, p) != (4, 0) and real(m, p),
            ["signs"],
            {"sun identity": (112, 0), "Whittaker type II": (21, 0), "parity lemma": (41, 1)},
            [{"m": 4, "p": 0, "kind": "parity lemma"}],
        ),
        (
            "quadspace", "is_quasi_split_oracle",
            lambda real: lambda q, p: real(q, p) != ((p, [str(c) for c in q.diag]) == (5, ["1", "1", "1"])),
            ["quasisplit"],
            {"quasi-split against the oracle": (24021, 1)},
            [{"diag": ["1", "1", "1"], "p": 5}],
        ),
        (
            "hecke", "expected_k_table",
            lambda real: lambda levi, A, a: real(levi, A, a + ((levi, tuple(A)) == ("M12", (2,)))),
            ["satake", "--d", "7", "--a", "1"],
            {"k(A) table": (18, 2), "h independent of A": (7, 0), "k_a base change": (2, 0)},
            [
                {"d": 7, "levi": "M12", "A": [2], "a": 1, "base": [1, 3], "kind": "kPart mismatch"},
                {"d": 7, "levi": "M12", "A": [2], "a": 1, "base": [3, 1], "kind": "kPart mismatch"},
            ],
        ),
        (
            "dsconst", "vanishing_quantities",
            lambda real: lambda r, t, case, split, mu: ([0, 1, 0, 0, 0], 1) if split == 2 else real(r, t, case, split, mu),
            ["vanishing", "--case", "odd", "--r", "5", "--t", "0", "--trials", "1", "--seed", "3"],
            {"N = 0": (6, 1), "M_i = 0": (6, 1)},
            [{"parity": "odd", "r": 5, "t": 0, "split": 2, "mu": ["95", "-2", "86", "9", "21"], "M": [0, 1, 0, 0, 0], "N": 1}],
        ),
        (
            "rootdata.Weight", "pairing_doubled",
            # 2 <mu, pi_2> at mu = w(rho) - rho = (-3, 0), for the B2 element
            # with w(rho) = (-3/2, 1/2): a Kostant entry only of M2 that the
            # truncation drops, kept if the pairing reads 0
            lambda real: lambda self, pi: 0 if (self.doubled, tuple(pi)) == ((-6, 0), (2, 0)) else real(self, pi),
            ["kostant", "--max-rank", "2", "--max-coord", "0"],
            {"Kostant identity": (6, 0), "truncated Kostant entries": (6, 1)},
            [{"kind": "B", "m": 2, "levi": "M2", "lambda": [0, 0], "cutoffs": ["pi2"]}],
        ),
    ],
    ids=["parity lemma", "quasi-split oracle", "k(A) table", "vanishing N and M", "truncated Kostant entries"],
)
def test_verify_failure_report_counts_and_witnesses(capsys, monkeypatch, target, name, wrong, argv, checks, witnesses):
    """A check that gives the wrong answer at one known case: the run fails
    (exit 1), counts that failure, and records exactly one witness per failing
    case, even where two identities fail at the same case."""
    import importlib

    module, _, attr = target.partition(".")
    owner = importlib.import_module(f"endolab.{module}")
    if attr:
        owner = getattr(owner, attr)
    monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
    code, out = _verify(capsys, *argv)
    assert (code, out["status"], out["command"]) == (1, "fail", f"verify {argv[0]}")
    assert out["checks"] == {
        identity: {"checked": checked, "failed": failed, "skipped": {}} for identity, (checked, failed) in checks.items()
    }
    assert out["witnesses"] == witnesses


def test_verify_zero_count_is_a_usage_error(capsys):
    from endolab import cli

    for argv in (["hilbert", "--pairs", "0"], ["arch", "--d", "7", "--case", "M2", "--samples", "0"]):
        assert cli.main(["verify", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "positive integer" in captured.err, argv


def test_verify_arch_documented_invocation():
    r = run(
        "verify", "arch", "--case", "M12", "--d", "8",
        "--lambda", "1,1,0,0", "--samples", "5", "--seed", "7",
    )
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["status"] == "pass" and out["witnesses"] == []
    assert out["parameters"]["range"] == "stated"


def test_reports_byte_identical():
    a = run("verify", "arch", "--d", "7", "--case", "M1", "--samples", "2", "--seed", "9")
    b = run("verify", "arch", "--d", "7", "--case", "M1", "--samples", "2", "--seed", "9")
    assert a.stdout == b.stdout
