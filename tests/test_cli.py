"""Command-line contract tests: flags, exit codes, output schema, and
byte-level determinism under a fixed seed."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import time

import jsonschema
import pytest

import varmult
from varmult.cli import run

VERDICT_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["zero-structural", "zero-numeric", "nonzero", "inconclusive"]},
        "points": {"type": "integer", "minimum": 1},
        "point": {"type": "object", "additionalProperties": {"type": "number"}},
        "value": {"type": ["number", "null"]},
        "reason": {"type": "string"},
    },
    "additionalProperties": False,
}

TRACE_ENTRY_SCHEMA = {
    "type": "object",
    "required": ["step", "kind", "checked", "verdict", "derived", "note"],
    "properties": {
        "step": {"type": "string", "pattern": r"^S[1-5](\(.*\))?$"},
        "kind": {"enum": ["check", "note"]},
        "checked": {"type": "string"},
        "verdict": VERDICT_SCHEMA,
        "derived": {"type": ["string", "null"]},
        "note": {"type": ["string", "null"]},
    },
    "additionalProperties": False,
}

ENVELOPE_SCHEMA = {
    "type": "object",
    "required": ["tool", "version", "subcommand", "input", "result", "trace"],
    "properties": {
        "tool": {"const": "varmult"},
        "version": {"type": "string", "pattern": r"^\d+\.\d+\.\d+$"},
        "subcommand": {"enum": ["check", "construct", "fels", "verify", "roundtrip"]},
        "input": {"type": "object"},
        "result": {"type": "object"},
        "trace": {"type": "array", "items": TRACE_ENTRY_SCHEMA},
    },
    "additionalProperties": False,
}

RESULT_SCHEMAS = {
    "check": {
        "type": "object",
        "required": ["outcome"],
        "properties": {
            "outcome": {"enum": ["accepted", "rejected", "inconclusive"]},
            "R": {"type": "string"},
            "rho": {"type": "string"},
            "f_lower": {"type": "array", "items": {"type": "string"}},
            "L": {"type": "string"},
            "residual": VERDICT_SCHEMA,
            "step": {"type": "string"},
            "witness": {"type": "string"},
            "verdict": VERDICT_SCHEMA,
        },
        "additionalProperties": False,
    },
    "construct": {
        "type": "object",
        "required": ["f", "rho", "L", "order", "lagrangian_order"],
        "additionalProperties": True,
    },
    "fels": {
        "type": "object",
        "required": ["T5", "T5_verdict", "I1", "I1_verdict", "variational_candidate"],
        "additionalProperties": False,
        "properties": {
            "T5": {"type": "string"}, "I1": {"type": "string"},
            "T5_verdict": VERDICT_SCHEMA, "I1_verdict": VERDICT_SCHEMA,
            "variational_candidate": {"type": "boolean"},
        },
    },
    "verify": {
        "type": "object",
        "required": ["verdict"],
        "properties": {"verdict": VERDICT_SCHEMA},
        "additionalProperties": False,
    },
    "roundtrip": {
        "type": "object",
        "required": ["trials", "all_passed"],
        "additionalProperties": False,
        "properties": {
            "all_passed": {"type": "boolean"},
            "trials": {"type": "array", "items": {
                "type": "object",
                "required": ["trial", "accepted", "residual",
                             "multiplier_consistent", "ok"],
                "additionalProperties": False,
                "properties": {
                    "trial": {"type": "integer"},
                    "accepted": {"type": "boolean"},
                    "residual": {"anyOf": [VERDICT_SCHEMA, {"type": "null"}]},
                    "multiplier_consistent": {"type": "boolean"},
                    "ok": {"type": "boolean"},
                },
            }},
        },
    },
}


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def validate(payload: str):
    obj = json.loads(payload)
    jsonschema.validate(obj, ENVELOPE_SCHEMA)
    jsonschema.validate(obj["result"], RESULT_SCHEMAS[obj["subcommand"]])
    return obj


# ---------------------------------------------------------------------------
# documented invocations
# ---------------------------------------------------------------------------


def test_check_accepted_example():
    code, out, _ = invoke("check", "--order", "2", "--expr", "p3^2")
    assert code == 0
    assert "outcome: accepted" in out
    assert "rho: exp(-p2)" in out


def test_check_rejected_example():
    code, out, _ = invoke("check", "--order", "2", "--expr", "p3^3")
    assert code == 1
    assert "outcome: rejected" in out
    assert "S2(k=3)" in out


def test_check_rejects_tiny_constant_slope():
    # S2(k=3) checks the exact constant 3/10^13, below atol but not zero
    code, out, _ = invoke("check", "--order", "2", "--expr",
                          "p3^2 + 1/10000000000000*p3^3", "--json")
    assert code == 1
    result = validate(out)["result"]
    assert result["outcome"] == "rejected" and result["step"] == "S2(k=3)"
    assert result["witness"] == "3/10000000000000"
    assert result["verdict"] == {"kind": "nonzero", "point": {}, "value": 3e-13}


def test_check_rejects_overflowing_constant_slope():
    code, out, _ = invoke("check", "--order", "2", "--expr", "10^400*p3^3")
    assert code == 1
    assert "outcome: rejected" in out and "step: S2(k=3)" in out
    assert '"value": Infinity' in out


def test_check_rejects_underflowing_polynomial_slope():
    # S2(k=3) checks 498501000*p3^997, which is within atol at every sample
    # point of the box; a Laurent polynomial that is not 0 is nonzero
    code, out, _ = invoke("check", "--order", "2", "--expr", "p3^1000", "--json")
    assert code == 1
    result = validate(out)["result"]
    assert result["outcome"] == "rejected" and result["step"] == "S2(k=3)"
    assert result["witness"] == "498501000*p3^997"
    verdict = result["verdict"]
    assert verdict["kind"] == "nonzero" and list(verdict["point"]) == ["p3"]
    p3 = verdict["point"]["p3"]
    assert verdict["value"] == 498501000 * p3 ** 997 and verdict["value"] > 1e-9


def test_check_json_is_strict_for_overflowing_values():
    # the S2(k=3) constant overflows a float: its value is null, not Infinity
    code, out, _ = invoke("check", "--order", "2", "--expr", "10^400*p3^3",
                          "--json")
    assert code == 1

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    obj = json.loads(out, parse_constant=reject)
    assert obj["result"]["verdict"] == {"kind": "nonzero", "point": {},
                                        "value": None}
    validate(out)


def test_non_finite_tolerance_is_a_usage_error():
    for tol in ("inf", "nan"):
        code, out, err = invoke("check", "--order", "2", "--expr", "p3^2",
                                "--tol", tol, "--json")
        assert code == 2 and out == "" and "finite" in err


def test_too_deep_nesting_is_a_parse_error():
    for opener, offset in (("(", 100), ("exp(", 400), ("-(", 201)):
        depth = 3000 if opener == "(" else 400
        expr = opener * depth + "p3" + ")" * depth
        code, out, err = invoke("check", "--order", "2", f"--expr={expr}")
        assert code == 2 and out == ""
        assert err == ("varmult: expression error: nesting deeper than 100 "
                       f"levels (byte {offset})\n")


def test_internal_error_has_its_own_exit_code(monkeypatch):
    import varmult.cli

    def boom(*args):
        raise RecursionError("maximum recursion depth\nexceeded")

    monkeypatch.setattr(varmult.cli, "check", boom)
    code, out, err = invoke("check", "--order", "2", "--expr", "p3^2")
    assert code == 4 and out == ""
    assert err == ("varmult: internal error: RecursionError: maximum "
                   "recursion depth exceeded\n")


def _python(*args, stdout=subprocess.PIPE, env=None):
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(varmult.__file__))
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env,
                          timeout=120)


def test_check_json_is_identical_across_hash_seeds():
    # node identity is object identity, so nothing may order output by
    # hash: the same input must print the same bytes in any process
    exprs = ("p3^2",
             "-9/4*p2 - 5/4*p1*p2*exp(3/2*x) - exp(-p0)*exp(1/2*x) + 3*p3"
             " + x*exp(3/2*x)",
             "-p2 - p0 + x",
             "p3^2 - p2 + x*p0")
    script = ("import sys\n"
              "from varmult.cli import run\n"
              "for e in sys.argv[1:]:\n"
              "    run(['check', '--order', '2', '--expr=' + e, '--json'])\n")
    outs = set()
    for seed in ("0", "1", "12345"):
        proc = _python("-c", script, *exprs, env={"PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outs.add(proc.stdout)
    assert len(outs) == 1
    results = [json.loads(line)["result"]["outcome"]
               for line in outs.pop().splitlines()]
    assert results == ["accepted", "accepted", "accepted", "rejected"]


def test_closed_stdout_exits_quietly():
    # `varmult check ... | head` with the reader gone before the write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _python("-m", "varmult.cli", "check", "--order", "2",
                       "--expr", "p3^2", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr == ""


def test_module_entry_point():
    proc = _python("-m", "varmult.cli", "check", "--order", "2", "--expr", "p3^3")
    assert proc.returncode == 1
    assert "outcome: rejected" in proc.stdout


def test_import_does_not_load_numpy():
    proc = _python("-c", "import sys, varmult.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_import_loads_no_typing():
    # -S: no site, so nothing but varmult's own imports counts; annotations
    # come from collections.abc and ExprLike is a run-time union; the test
    # kit is imported only by `roundtrip`, so a cold `check` does not
    # compile it
    proc = _python("-S", "-c", "import sys, varmult.cli; print(sorted(m for m in "
                   "('typing', 'dataclasses', 'numpy', 'varmult.testkit') "
                   "if m in sys.modules))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fels_trivial_example():
    code, out, _ = invoke("fels", "--expr", "0")
    assert code == 0
    assert "T5: 0" in out and "I1: 0" in out


def test_fels_failing_input():
    code, out, _ = invoke("fels", "--expr", "p1")
    assert code == 1


@pytest.mark.parametrize("text,code,verdicts", [
    # neither verdict nonzero and one inconclusive: 3, as in `verify`
    ("log(-1-p3^2)*p3^3", 3, ("inconclusive", "inconclusive")),
    ("log(-1-p2^2)*p3", 3, ("zero-structural", "inconclusive")),
    ("p3^3", 1, ("nonzero", "nonzero")),
    ("0", 0, ("zero-structural", "zero-structural")),
])
def test_fels_exit_code_follows_its_verdicts(text, code, verdicts):
    got, out, _ = invoke("fels", "--expr", text, "--json")
    result = validate(out)["result"]
    assert got == code
    assert (result["T5_verdict"]["kind"], result["I1_verdict"]["kind"]) == verdicts
    assert result["variational_candidate"] is (code == 0)


def test_check_inconclusive_exit_code():
    code, _, _ = invoke("check", "--order", "2", "--expr",
                        "p3^3*log(-2 - p1^2)")
    assert code == 3


def test_log_of_a_nonpositive_constant_is_an_input_error():
    # log(-1) and log(0) are no real constants: exit 2, not a verdict
    for argv in (("check", "--order", "2", "--expr", "log(-1)*p3^2"),
                 ("check", "--order", "2", "--expr", "log(0)"),
                 ("construct", "--order", "2", "--R=log(-1)*p1")):
        code, out, err = invoke(*argv)
        assert (code, out) == (2, "") and "nonpositive constant" in err
    # a log of a negative sum is no constant: still inconclusive
    code, out, _ = invoke("check", "--order", "2", "--expr", "p3^3*log(-2 - p1^2)")
    assert code == 3 and "outcome: inconclusive" in out


def test_log_of_a_negative_constant_is_an_input_error():
    # a constant that is not rational is no real log argument either when
    # its value is negative: exit 2, not a verdict
    for text in ("log(-exp(1))*p3^2", "log(1 - exp(1))*p3^2", "log(cos(4))*p3^2"):
        code, out, err = invoke("check", "--order", "2", "--expr", text)
        assert (code, out) == (2, "") and "negative constant" in err, text
    # a positive one, or one within rounding of 0, is a constant as before
    for text in ("log(1 + exp(1))*p3^2", "log(exp(1/10^20) - 1)"):
        code, out, _ = invoke("check", "--order", "2", "--expr", text)
        assert code == 0 and "outcome: accepted" in out, text


def test_log_of_an_overflowing_negative_constant_is_an_input_error():
    # a coefficient times exponentials has the coefficient's sign, also when
    # the value overflows a float
    for text in ("log(-exp(1000))*p3^2", "log(-3*exp(1000)*exp(2))*p3^2"):
        code, out, err = invoke("check", "--order", "2", "--expr", text)
        assert (code, out) == (2, "") and "negative constant" in err, text
    for text in ("log(exp(1000))*p3^2", "log(exp(-1000))*p3^2"):
        code, out, _ = invoke("check", "--order", "2", "--expr", text)
        assert code == 0 and "outcome: accepted" in out, text


def test_log_of_a_constant_of_undecided_sign_is_an_input_error():
    # 1 - exp(1000) is negative, but its value overflows a float and its
    # terms' coefficients differ in sign: exit 2, not a verdict
    code, out, err = invoke("check", "--order", "2", "--expr", "log(1 - exp(1000))*p3^2")
    assert (code, out) == (2, "") and "sign cannot be decided" in err
    for text in ("log(1 + exp(1000))*p3^2", "log(exp(1/10^20) - 1)*p3^2"):
        code, out, _ = invoke("check", "--order", "2", "--expr", text)
        assert code == 0 and "outcome: accepted" in out, text


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def test_json_schema_check_accepted():
    code, out, _ = invoke("check", "--order", "2", "--expr", "p3^2", "--json")
    assert code == 0
    obj = validate(out)
    assert obj["result"]["outcome"] == "accepted"
    assert obj["result"]["L"] == "-1 + p2 + exp(-p2)"
    assert obj["trace"]  # non-empty audit trail


def test_json_schema_check_rejected():
    code, out, _ = invoke("check", "--order", "2", "--expr", "p3^3", "--json")
    assert code == 1
    obj = validate(out)
    assert obj["result"]["step"] == "S2(k=3)"


def test_json_schema_construct():
    code, out, _ = invoke("construct", "--order", "2", "--R", "p2", "--json")
    assert code == 0
    obj = validate(out)
    assert obj["result"]["f"] == "p3^2"


def test_json_schema_fels():
    code, out, _ = invoke("fels", "--expr", "0", "--json")
    assert code == 0
    validate(out)


def test_json_schema_verify():
    code, out, _ = invoke("verify", "--order", "2", "--expr", "p3^2",
                          "--rho", "exp(-p2)",
                          "--lagrangian", "p2 - 1 + exp(-p2)", "--json")
    assert code == 0
    validate(out)


def test_json_schema_roundtrip():
    code, out, _ = invoke("roundtrip", "--order", "2", "--trials", "2",
                          "--seed", "9", "--json")
    assert code == 0
    obj = validate(out)
    assert obj["result"]["all_passed"] is True
    assert len(obj["result"]["trials"]) == 2


# ---------------------------------------------------------------------------
# determinism and error paths
# ---------------------------------------------------------------------------


def test_fixed_seed_is_byte_deterministic():
    runs = [invoke("check", "--order", "2", "--expr", "p3^2", "--json",
                   "--seed", "123") for _ in range(2)]
    assert runs[0] == runs[1]
    rt = [invoke("roundtrip", "--order", "2", "--trials", "2", "--seed", "5",
                 "--json") for _ in range(2)]
    assert rt[0] == rt[1]


#: invocations whose every verdict is structural (zero-structural, or a
#: nonzero constant): their bytes do not hang on the sampler or its
#: tolerances
_PINNED_INVOCATIONS = [
    ["check", "--order", "2", "--expr", "p3^2"],
    ["check", "--order", "2", "--expr", "-p2 - p0 + x"],
    ["check", "--order", "2", "--expr", "p3^3"],
    ["check", "--order", "3", "--expr", "p5^2 + p4"],
    ["construct", "--order", "2", "--R", "p2", "--f", "1=p1^2", "--N", "p1^3"],
    ["construct", "--order", "3", "--lagrangian-order", "4", "--R", "x*p3",
     "--f", "0=p0^2", "--f", "2=x"],
    ["fels", "--expr", "0"],
    ["fels", "--expr", "p1"],
    ["verify", "--order", "2", "--expr", "p3^2", "--rho", "exp(-p2)",
     "--lagrangian", "p2 - 1 + exp(-p2)"],
    ["verify", "--order", "2", "--expr", "1", "--rho", "1", "--lagrangian", "p2^2/2"],
    ["roundtrip", "--order", "2", "--trials", "2", "--seed", "9"],
    ["roundtrip", "--order", "3", "--trials", "1", "--seed", "4"],
]
_PINNED_INVOCATIONS += [[*argv, "--json"] for argv in _PINNED_INVOCATIONS]
_PINNED_INVOCATIONS += [
    ["check", "--order", "2", "--expr", "p3^2", "--seed", "7", "--samples", "3",
     "--tol", "1e-6", "--json"],
    ["check", "--order", "1", "--expr", "0"],
    ["roundtrip", "--order", "2", "--trials", "0", "--json"],
    ["construct", "--order", "2", "--f", "5=p1"],
    ["check", "--order", "2", "--expr", "2*D oops", "--json"],
    ["verify", "--order", "2", "--expr", "0", "--rho", "p1", "--lagrangian", "0"],
]
CLI_SHA256 = "09bf03ee835d17fa04ae803337b674a051d4e09ec7942db52e976b6a26b477b5"


def test_cli_bytes_are_pinned(monkeypatch):
    # every subcommand in text and in JSON, usage and expression errors and
    # rejections: argv, exit code, stdout and stderr of each, hashed
    monkeypatch.delenv("VARMULT_SEED", raising=False)
    h = hashlib.sha256()
    for argv in _PINNED_INVOCATIONS:
        h.update(json.dumps([argv, *invoke(*argv)]).encode() + b"\n")
    assert h.hexdigest() == CLI_SHA256


def _known_failure(text, code, item):
    return pytest.param(text, code, marks=pytest.mark.xfail(strict=True,
                                                            reason=f"ROADMAP item {item}"))


@pytest.mark.parametrize("text,code", [
    # a small coefficient reads as a zero sample
    _known_failure("1/10^8*p0*cos(p2)", 1, "1"),
    # a slope that is not 0 but rounds to 0 in floats
    _known_failure("p3^2 + (p0+1)^-1*p3^3 - (p0+1+1/10^20)^-1*p3^3", 1, "2(a)"),
    _known_failure("p3^2 + (cos(1/10^10)-1)*p3^3", 1, "2(b)"),
    # S2(k=2) overflows at every sample: inconclusive (exit 3)
    _known_failure("(p1+3)^1000*p3^2", 1, "2(a)"),
    # the log's argument is positive, but refused as of undecided sign
    _known_failure("log(exp(1000) - 1)*p3^2", 0, "2(b)"),
    # accepted, but R is printed as a divergent opaque integral
    _known_failure("p3^2/p2", 0, "5"),
    _known_failure("(p2^2)^-2*p3^2", 0, "5"),
])
def test_known_wrong_verdicts(text, code):
    # the PR that mends a case removes its mark
    got, out, _ = invoke("check", "--order", "2", "--expr", text)
    assert got == code
    if code == 0:
        assert "Int(" not in next(line for line in out.splitlines() if line.startswith("R: "))


def test_oversized_rationals_are_input_errors():
    # a constant has at most 4000 digits: a power is refused before it is
    # computed, a longer literal at its offset, and a longer result before
    # `check` runs, so each ends at once in exit 2 with a message
    for text, message in (
            ("2^9999999999", "error: power of 2 with more than 4000 digits"),
            ("p3^2 + 2^999999", "error: power of 2 with more than 4000 digits"),
            ("p3^2 + 10^3999*10^3999", "error: rational constant with more than 4000 digits"),
            ("p3^2 + " + "7" * 5000, "expression error: number with more than 4000 digits (byte 7)")):
        start = time.perf_counter()
        code, out, err = invoke("check", "--order", "2", f"--expr={text}")
        assert (code, out, err) == (2, "", f"varmult: {message}\n"), text[:30]
        assert time.perf_counter() - start < 10


def test_huge_power_of_a_sum_is_an_input_error():
    # a positive power of a sum is expanded, so its exponent is bounded
    # (MAX_SUM_POWER) and a larger one is refused before any work is done
    for text in ("(p1+1)^99999999999999999999*p3^2", "(p1+1)^1001*p3^2"):
        start = time.perf_counter()
        code, out, err = invoke("check", "--order", "2", f"--expr={text}")
        assert (code, out) == (2, "")
        assert err == "varmult: error: power of a sum with an exponent above 1000\n"
        assert time.perf_counter() - start < 1
    assert varmult.symexpr.MAX_SUM_POWER == 1000


def test_huge_power_of_an_atom_is_an_input_error():
    # an exponent of x or a jet is below MAX_ATOM_EXPONENT, so that the
    # kernel's packed monomials are exact
    for text in ("p1^2147483648*p3^2", "p1^2147483647*p1*p3^2", "x^-2147483648*p3^2"):
        code, out, err = invoke("check", "--order", "2", f"--expr={text}")
        assert (code, out) == (2, "")
        assert err == "varmult: error: atom power with an exponent of magnitude 2147483648 or more\n"
    assert invoke("check", "--order", "2", "--expr=p1^2147483647*p3^2")[0] == 1


def test_check_rejects_a_slope_whose_sample_sum_overflows():
    # S2(k=3) checks 16*10^307*(x + p1): each term of the sum is a finite
    # float at the first sample point, but their sum is not
    code, out, err = invoke("check", "--order", "2", "--expr",
                            "16*10^307/3*(x+p1)*p3^3", "--json")
    assert code == 1, err
    result = validate(out)["result"]
    assert result["outcome"] == "rejected" and result["step"] == "S2(k=3)"


@pytest.mark.parametrize("text", ["exp(p3)^100000", "exp(100000*p3)",
                                  "(p3+1)^-99999999999999999999",
                                  "p3^2 + (exp(1/10^20)-1)*p3^3",
                                  "p3^2 + (exp(1/10^12)-1)*p3^3",
                                  "p3^2 + (exp(p0/10^20)-1)*p3^3",
                                  "p3^2 + (exp(x) - exp(x + 1/10^20))*p3^3",
                                  "p3^2 + sin(1/10^20)*p3^3",
                                  "p3^2 + log(1+1/10^20)*p3^3"])
def test_check_rejects_a_slope_whose_samples_underflow(text):
    # every S2(k=3) sample is within tolerance of 0, but the canonical form
    # of the slope is nonzero by its shape
    code, out, _ = invoke("check", "--order", "2", "--expr", text)
    assert code == 1 and "outcome: rejected" in out and "step: S2(k=3)" in out


def test_parse_error_exit_code_and_offset():
    code, out, err = invoke("check", "--order", "2", "--expr", "2*D oops")
    assert code == 2
    assert out == ""
    assert "byte 2" in err


def test_non_ascii_digit_is_a_parse_error():
    # only ASCII digits make numbers and jet indices: each text fails at the
    # first non-ASCII character, which is also its byte offset
    for text, offset in (("1\u0663*p3^2", 1), ("p1\u0663*p3^2", 2),
                         ("p1\u00b2 + p3^2", 2), ("p\u00b2 + p3^2", 1)):
        code, out, err = invoke("check", "--order", "2", f"--expr={text}")
        assert (code, out) == (2, ""), text
        assert err == (f"varmult: expression error: non-ASCII character "
                       f"{text[offset]!r} (byte {offset})\n"), text


def test_usage_error_exit_code():
    code, _, _ = invoke("check", "--order", "2")  # missing --expr
    assert code == 2
    code, _, err = invoke("check", "--order", "1", "--expr", "0")
    assert code == 2
    # the top jet p_{2n} must exist: n <= MAX_JET_INDEX // 2 = 32
    for argv in (["check", "--expr", "p3"], ["construct"],
                 ["verify", "--expr", "p3", "--rho", "1", "--lagrangian", "0"],
                 ["roundtrip", "--trials", "1"]):
        code, out, err = invoke(argv[0], "--order", "99999", *argv[1:])
        assert (code, out, err) == (2, "", "varmult: error: --order must be <= 32\n"), argv
        code, _, err = invoke(argv[0], "--order", "33", *argv[1:])
        assert code == 2 and "--order must be <= 32" in err, argv
    code, _, err = invoke("construct", "--order", "2", "--R", "0",
                          "--f", "5=p1")
    assert code == 2 and "--f 5" in err
    for bad in (["--f", "p1"], ["--f", "x=p1"], ["--f", "1=p1", "--f", "1=x"]):
        code, _, err = invoke("construct", "--order", "2", *bad)
        assert code == 2 and "--f" in err, bad
    code, out, err = invoke("roundtrip", "--order", "2", "--trials", "0")
    assert (code, out, err) == (2, "", "varmult: error: --trials must be >= 1\n")


def test_expression_values_may_begin_with_a_minus():
    # argparse alone reads "-p3^2" as an option and exits 2
    code, out, err = invoke("check", "--order", "2", "--expr", "-p3^2")
    assert code == 0 and "outcome: accepted" in out
    assert invoke("check", "--order", "2", "--expr=-p3^2") == (code, out, err)
    code, out, _ = invoke("construct", "--order", "2", "--R", "-p1")
    assert code == 0 and "rho: exp(p1)" in out
    code, out, _ = invoke("construct", "--order", "2", "--N", "-p1")
    assert code == 0 and "L: " in out
    code, _, _ = invoke("verify", "--order", "2", "--expr", "-p2", "--rho", "1",
                        "--lagrangian", "-1/2*p1^2 + 1/2*p2^2")
    assert code == 0
    code, _, err = invoke("verify", "--order", "2", "--expr", "0", "--rho", "-1",
                          "--lagrangian", "0")
    assert code == 2 and "rho" in err
    # a missing value is still a usage error
    assert invoke("check", "--order", "2", "--expr")[0] == 2


def test_verify_rejects_bad_multiplier_shape():
    code, _, err = invoke("verify", "--order", "2", "--expr", "0",
                          "--rho", "p1", "--lagrangian", "p2^2/2")
    assert code == 2


def test_verify_nonzero_exit_code():
    code, out, _ = invoke("verify", "--order", "2", "--expr", "0",
                          "--rho", "1", "--lagrangian", "p2^2/2 + p1^2")
    assert code == 1


def test_construct_plain_output():
    code, out, _ = invoke("construct", "--order", "2", "--R", "0",
                          "--f", "1=1")
    assert code == 0
    assert out.splitlines() == ["f: -p2", "rho: 1",
                                "L: -1/2*p1^2 + 1/2*p2^2"]


def test_construct_relaxed_lagrangian_order():
    code, out, _ = invoke("construct", "--order", "2", "--lagrangian-order",
                          "3", "--R", "p2", "--N", "p1", "--json")
    assert code == 0
    obj = validate(out)
    assert obj["result"]["lagrangian_order"] == 3
    assert obj["result"]["f"] == "p3^2"


def test_env_seed_override(monkeypatch):
    monkeypatch.setenv("VARMULT_SEED", "321")
    _, out, _ = invoke("check", "--order", "2", "--expr", "p3^2", "--json")
    assert json.loads(out)["input"]["seed"] == 321
    monkeypatch.setenv("VARMULT_SEED", "junk")
    _, out, _ = invoke("check", "--order", "2", "--expr", "p3^2", "--json")
    assert json.loads(out)["input"]["seed"] == 0


def test_check_json_echoes_the_sample_count():
    code, out, _ = invoke("check", "--order", "2", "--expr", "p3^2",
                          "--samples", "3", "--json")
    assert code == 0
    assert validate(out)["input"]["samples"] == 3


def test_exit_codes_are_within_contract():
    # spot-check that every exercised path exits with 0, 1, 2 or 3
    codes = {
        invoke("check", "--order", "2", "--expr", "0")[0],
        invoke("check", "--order", "2", "--expr", "p3^3")[0],
        invoke("check", "--order", "2", "--expr", "bad(")[0],
        invoke("fels", "--expr", "p3^3")[0],
        invoke("verify", "--order", "2", "--expr", "0", "--rho", "1",
               "--lagrangian", "p2^2/2")[0],
        invoke("roundtrip", "--order", "2", "--trials", "1", "--seed", "3")[0],
    }
    assert codes <= {0, 1, 2, 3}
