"""Process-tree CPU and RSS sums over a fake /proc."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import server  # noqa: E402


def write_proc(root, pid, ppid, utime, stime, cutime=0, cstime=0, hwm_kb=0,
               comm="python3"):
    directory = root / str(pid)
    directory.mkdir()
    # Fields after the command name: state, ppid, then 9 more before
    # utime (field 14 of the full line).
    rest = ["S", ppid, 0, 0, 0, 0, 0, 0, 0, 0, 0, utime, stime, cutime, cstime]
    rest += [0] * 37
    (directory / "stat").write_text(
        f"{pid} ({comm}) " + " ".join(str(v) for v in rest) + "\n")
    (directory / "status").write_text(
        f"Name:\t{comm}\nVmPeak:\t999 kB\nVmHWM:\t{hwm_kb} kB\nVmRSS:\t1 kB\n")


def test_tree_sums_the_server_and_every_descendant(tmp_path):
    write_proc(tmp_path, 100, 1, utime=50, stime=10, hwm_kb=1024)       # server
    write_proc(tmp_path, 101, 100, utime=30, stime=5, hwm_kb=2048)      # worker
    write_proc(tmp_path, 102, 101, utime=1, stime=1, hwm_kb=512)        # grandchild
    write_proc(tmp_path, 200, 1, utime=999, stime=999, hwm_kb=99999)    # generator
    write_proc(tmp_path, 201, 200, utime=999, stime=999)                # its child
    (tmp_path / "self").mkdir()                                         # non-pid entry
    proc = str(tmp_path)
    assert sorted(server.descendants(100, proc)) == [100, 101, 102]
    ticks = 60 + 35 + 2
    assert server.tree_cpu_seconds(100, proc) == ticks / server._CLK_TCK
    assert server.tree_peak_rss_mb(100, proc) == (1024 + 2048 + 512) / 1024


def test_reaped_children_stay_counted_through_cutime(tmp_path):
    # A worker that exited handed its CPU to the server's cutime/cstime.
    write_proc(tmp_path, 100, 1, utime=50, stime=10, cutime=30, cstime=5)
    assert server.tree_cpu_seconds(100, str(tmp_path)) == 95 / server._CLK_TCK


def test_command_names_with_spaces_and_parentheses_parse(tmp_path):
    write_proc(tmp_path, 100, 1, utime=7, stime=3, comm="repro (worker 1)")
    assert server.read_stat(100, str(tmp_path)) == (1, 7, 3, 0, 0)


def test_vanished_processes_are_skipped(tmp_path):
    write_proc(tmp_path, 100, 1, utime=1, stime=1)
    assert server.read_stat(12345, str(tmp_path)) is None
    assert server.tree_cpu_seconds(100, str(tmp_path)) == 2 / server._CLK_TCK
