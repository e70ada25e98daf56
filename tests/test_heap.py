import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

import mecole

MIB = 1 << 20


def recording_libc():
    calls = []
    return SimpleNamespace(mallopt=lambda param, value: calls.append(
        (param, value))), calls


def test_pins_both_thresholds_once():
    libc, calls = recording_libc()
    mecole.pin_heap_thresholds(libc, {"PATH": "/bin"})
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
    assert calls == [(-3, 32 * MIB), (-1, 64 * MIB)]


@pytest.mark.parametrize("setting", [
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_TRIM_THRESHOLD_", "0"),
    ("GLIBC_TUNABLES", "glibc.rtld.optional_static_tls=512:"
                       "glibc.malloc.trim_threshold=131072"),
])
def test_user_heap_settings_are_left_alone(setting):
    libc, calls = recording_libc()
    mecole.pin_heap_thresholds(libc, dict([setting]))
    assert calls == []


def test_other_tunables_do_not_count_as_heap_settings():
    libc, calls = recording_libc()
    mecole.pin_heap_thresholds(libc, {"GLIBC_TUNABLES":
                               "glibc.rtld.optional_static_tls=512"})
    assert len(calls) == 2


def test_libc_without_mallopt_is_a_no_op():
    mecole.pin_heap_thresholds(SimpleNamespace(), {})


def test_import_under_a_user_trim_threshold_exits_zero():
    src = os.path.dirname(os.path.dirname(os.path.abspath(mecole.__file__)))
    env = dict(os.environ, MALLOC_TRIM_THRESHOLD_="131072", PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", "import mecole"], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
