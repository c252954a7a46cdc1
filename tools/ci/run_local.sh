#!/usr/bin/env bash
# Replays the jobs of .github/workflows/ci.yml on this machine, without network access.
#
#   tools/ci/run_local.sh [-g ninja|make|both] [-w WORKDIR] [-n] [JOB ...]
#
# Every `run:` step of each job runs in order, under the job's `env:` and its matrix
# leg's values, in a fresh copy of the working tree (tracked and untracked, not ignored
# files) at WORKDIR/<job>[-<leg>]-<generator>, the way actions/checkout gives each CI job
# a clean tree. Steps are taken from ci.yml itself, so the replay cannot drift from it.
#
#   JOB  ci.yml job ids (default: all). A matrix job replays each leg (build-test: gcc,
#        clang).
#   -g   CMake generators to replay (default: both). `ninja` runs the steps as written;
#        `make` swaps `-G Ninja` for `-G "Unix Makefiles"`, the Tier-1 recipe's generator.
#   -w   work directory (default: .ci_local under the repository root).
#   -n   print the steps that would run, run nothing.
#
# What cannot be replayed offline is skipped and reported, never faked:
#   - `uses:` steps (checkout, cache, artifact upload) and the apt-get dependency step;
#   - a matrix leg whose compiler ($CC/$CXX) is not installed;
#   - a step whose first command is not installed (run-clang-tidy).
#   - ccache launcher flags are dropped when ccache is not installed.
# A failed step stops its job; later steps marked `if: always()` still run, as in CI.
# Each step's output goes to WORKDIR/logs/<job>[-<leg>]-<generator>/<nn>.log. The summary
# lists every step with its status and wall time; the exit code is 1 if any step failed.
# Needs python3 with PyYAML.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
exec python3 - "$ROOT" "$@" <<'PY'
import getopt, os, re, shutil, subprocess, sys, time

root = sys.argv[1]
try:
    opts, jobs = getopt.getopt(sys.argv[2:], "g:w:n")
except getopt.GetoptError as err:
    sys.exit(f"run_local.sh: {err}")
opts = dict(opts)
gens = {"ninja": ["ninja"], "make": ["make"], "both": ["ninja", "make"]}.get(opts.get("-g", "both"))
if gens is None:
    sys.exit("run_local.sh: -g takes ninja, make or both")
work = os.path.abspath(opts.get("-w", os.path.join(root, ".ci_local")))
dry_run = "-n" in opts

try:
    import yaml
except ImportError:
    sys.exit("run_local.sh: needs PyYAML (python3 -c 'import yaml')")
with open(os.path.join(root, ".github/workflows/ci.yml"), encoding="utf-8") as f:
    workflow = yaml.safe_load(f)
all_jobs = workflow["jobs"]
for job in jobs:
    if job not in all_jobs:
        sys.exit(f"run_local.sh: unknown job {job!r}; ci.yml has {', '.join(all_jobs)}")
jobs = jobs or list(all_jobs)

def expand(text, matrix):
    return re.sub(r"\$\{\{\s*matrix\.(\w+)\s*\}\}", lambda m: str(matrix.get(m.group(1), "")),
                  str(text))

def for_generator(script, gen):
    if gen == "make":
        script = script.replace("-G Ninja", '-G "Unix Makefiles"')
    if shutil.which("ccache") is None:
        script = re.sub(r"\s*-DCMAKE_(C|CXX)_COMPILER_LAUNCHER=ccache", "", script)
    return script

def first_command(script):
    for line in script.splitlines():
        line = line.strip()
        if line and not line.startswith("#") and not line.startswith("set "):
            return line.split()[0]
    return ""

def copy_tree(dest):
    files = subprocess.run(["git", "-C", root, "ls-files", "-co", "--exclude-standard", "-z"],
                           capture_output=True, check=True).stdout.split(b"\0")
    for name in filter(None, (f.decode() for f in files)):
        src = os.path.join(root, name)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))

summary = []
for job_id in jobs:
    job = all_jobs[job_id]
    legs = job.get("strategy", {}).get("matrix", {}).get("include") or [{}]
    for leg in legs:
        env = {k: expand(v, leg) for k, v in job.get("env", {}).items()}
        leg_name = leg.get("compiler", "")
        for gen in gens:
            name = "-".join(filter(None, [job_id, leg_name, gen]))
            missing = [env[k] for k in ("CC", "CXX") if k in env and shutil.which(env[k]) is None]
            if missing:
                summary.append((name, "(job)", "SKIPPED", 0.0, f"{' '.join(missing)} not installed"))
                continue
            tree = os.path.join(work, name)
            logs = os.path.join(work, "logs", name)
            if not dry_run:
                shutil.rmtree(tree, ignore_errors=True)
                shutil.rmtree(logs, ignore_errors=True)
                copy_tree(tree)
                os.makedirs(logs)
            step_env = dict(os.environ, **env, GITHUB_STEP_SUMMARY=os.path.join(logs, "summary.md"))
            failed = False
            for index, step in enumerate(job["steps"]):
                title = step.get("name") or step.get("uses", "")
                if "run" not in step or "apt-get" in step["run"]:
                    continue
                if failed and "always()" not in str(step.get("if", "")):
                    summary.append((name, title, "NOT RUN", 0.0, "an earlier step failed"))
                    continue
                script = for_generator(expand(step["run"], leg), gen)
                if shutil.which(first_command(script)) is None and "/" not in first_command(script):
                    summary.append((name, title, "SKIPPED", 0.0, f"{first_command(script)} not installed"))
                    continue
                if dry_run:
                    print(f"## {name}: {title}\n{script.rstrip()}\n")
                    continue
                log_path = os.path.join(logs, f"{index:02d}.log")
                print(f"[{name}] {title} ...", flush=True)
                start = time.monotonic()
                with open(log_path, "w") as log:
                    done = subprocess.run(["bash", "--noprofile", "--norc", "-e", "-c", script],
                                          cwd=tree, env=step_env, stdout=log, stderr=subprocess.STDOUT)
                seconds = time.monotonic() - start
                status = "ok" if done.returncode == 0 else f"FAILED ({done.returncode})"
                failed = failed or done.returncode != 0
                summary.append((name, title, status, seconds, os.path.relpath(log_path, work)))

if not dry_run:
    print(f"\n{'job':<28} {'step':<48} {'status':<12} {'seconds':>8}  note")
    for name, title, status, seconds, note in summary:
        print(f"{name:<28} {title[:48]:<48} {status:<12} {seconds:8.1f}  {note}")
elif summary:
    for name, title, status, _, note in summary:
        print(f"## {name}: {title} -- {status}: {note}")
sys.exit(1 if any(s[2].startswith("FAILED") for s in summary) else 0)
PY
