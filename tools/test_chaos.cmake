# CTest script: the cnauditd chaos harness.
#
# Proves the daemon's headline crash-safety invariant: SIGKILL at ANY
# point (emulated by armed CN_CRASH_AT kill points, which _exit(137)
# with no destructors — observably identical to SIGKILL), then restart
# from the last checkpoint, converges to a final report byte-identical
# to an uninterrupted run's. Kill points cover the apply path and every
# stage of a checkpoint save: mid-append to the event-log segment,
# between the segment's fsync and the state file, before the state
# file's fsync, before its rename, after it. Each kill also names the
# restart it must lead to — a resume from the last durable checkpoint,
# or a cold start when none was durable yet — checked on the restarted
# daemon's stderr, since a cold start reproduces the final bytes too.
if(NOT DEFINED CNAUDIT OR NOT DEFINED CNAUDITD)
  message(FATAL_ERROR "pass -DCNAUDIT=<path> -DCNAUDITD=<path>")
endif()

set(workdir "${CMAKE_CURRENT_BINARY_DIR}/cnauditd_chaos_test")
file(REMOVE_RECURSE "${workdir}")
file(MAKE_DIRECTORY "${workdir}")
set(data "${workdir}/data")

execute_process(
  COMMAND "${CNAUDIT}" simulate --dataset A --seed 11 --scale 0.1 --out "${data}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "simulate failed (${rc}): ${out}${err}")
endif()

# --- reference: one uninterrupted oneshot run, no checkpointing -------
execute_process(
  COMMAND "${CNAUDITD}" --input "${data}" --oneshot --out "${workdir}/ref.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "reference run failed (${rc}): ${out}${err}")
endif()
file(READ "${workdir}/ref.json" ref)
string(LENGTH "${ref}" ref_len)
if(ref_len EQUAL 0)
  message(FATAL_ERROR "reference report is empty")
endif()

# A numeric value that does not parse whole, or a port above 65535, is
# rejected with exit 2 naming the flag, before any work starts.
function(expect_bad_number flag)
  execute_process(
    COMMAND "${CNAUDITD}" --input "${data}" --oneshot ${ARGN}
            --out "${workdir}/bad_number.json"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
  string(FIND "${err}" "${flag} '" found)
  if(NOT rc EQUAL 2 OR found EQUAL -1 OR EXISTS "${workdir}/bad_number.json")
    message(FATAL_ERROR "cnauditd ${ARGN} exited ${rc}, want 2 naming ${flag}: ${err}")
  endif()
endfunction()
expect_bad_number(--checkpoint-every --checkpoint "${workdir}/bad.ckpt"
                  --checkpoint-every x)
expect_bad_number(--seal-every --seal-every abc)
expect_bad_number(--http-port --serve --http-port 70000)

# An option cnauditd does not read is rejected with exit 2 naming it,
# before any work starts, so neither a retired option (--threads) nor a
# typo is ignored silently.
function(expect_unknown_option flag)
  execute_process(
    COMMAND "${CNAUDITD}" --input "${data}" --oneshot ${ARGN}
            --out "${workdir}/unknown_option.json"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
  string(FIND "${err}" "unknown option ${flag}\n" found)
  if(NOT rc EQUAL 2 OR found EQUAL -1 OR EXISTS "${workdir}/unknown_option.json")
    message(FATAL_ERROR "cnauditd ${ARGN} exited ${rc}, want 2 naming ${flag}: ${err}")
  endif()
endfunction()
expect_unknown_option(--threads --threads 0)
expect_unknown_option(--seal-evry --seal-evry 4)

# A checkpoint that cannot be written stops the daemon with exit 1, and
# stderr names the file that failed.
execute_process(
  COMMAND "${CNAUDITD}" --input "${data}" --oneshot
          --checkpoint "${workdir}/no_such_dir/x.ckpt" --checkpoint-every 8
          --out "${workdir}/unwritable.json"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err TIMEOUT 60)
string(FIND "${err}" "x.ckpt" found)
if(NOT rc EQUAL 1 OR found EQUAL -1)
  message(FATAL_ERROR "cnauditd with an unwritable checkpoint exited ${rc}, "
                      "want 1 naming x.ckpt: ${err}")
endif()

# --- chaos: kill at a point, restart clean, require identical bytes ---
# Checkpoints every 8 blocks: the 62-block data set makes 7 of them. Its
# first block arrives after ~120 mempool snapshots, so the single-kill
# list's daemon.apply kills land before the first checkpoint.

# Runs cnauditd against ${ckpt} and ${report}, armed with
# CN_CRASH_AT=${spec} unless it is empty; sets run_rc and run_err in the
# caller.
function(run_daemon spec)
  set(env_cmd)
  if(spec)
    set(env_cmd "${CMAKE_COMMAND}" -E env "CN_CRASH_AT=${spec}")
  endif()
  execute_process(
    COMMAND ${env_cmd} "${CNAUDITD}" --input "${data}" --oneshot
            --checkpoint "${ckpt}" --checkpoint-every 8 --out "${report}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  set(run_rc "${rc}" PARENT_SCOPE)
  set(run_err "${err}" PARENT_SCOPE)
endfunction()

# Fails unless cnauditd's stderr ${err} shows the start ${expect} names:
# "resume" from a checkpoint, or "cold" because none exists.
function(expect_start expect err context)
  if(expect STREQUAL "resume")
    set(line "recovered from checkpoint at seq")
  elseif(expect STREQUAL "cold")
    set(line "no checkpoint; cold start")
  else()
    message(FATAL_ERROR "${context}: unknown restart '${expect}'")
  endif()
  string(FIND "${err}" "${line}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${context}: expected '${line}' on stderr, got: ${err}")
  endif()
endfunction()

# Each entry is "<CN_CRASH_AT spec>=<restart>": the restart the kill
# leads to.
set(kill_specs
  "daemon.apply:3=cold"
  "daemon.apply:29=cold"
  "daemon.apply:101=cold"
  "checkpoint.mid_append:1=cold"
  "checkpoint.mid_append:3=resume"
  "checkpoint.post_append:2=resume"
  "checkpoint.pre_fsync:1=cold"
  "checkpoint.pre_rename:1=cold"
  "checkpoint.pre_rename:3=resume"
  "checkpoint.post_rename:1=resume"
  "daemon.post_checkpoint:2=resume"
)
set(ckpt "${workdir}/single.ckpt")
set(report "${workdir}/single.json")
foreach(entry IN LISTS kill_specs)
  string(REPLACE "=" ";" fields "${entry}")
  list(GET fields 0 spec)
  list(GET fields 1 expect)
  file(REMOVE "${ckpt}" "${ckpt}.tmp" "${ckpt}.log" "${report}")
  run_daemon("${spec}")
  if(NOT run_rc EQUAL 137)
    message(FATAL_ERROR "kill point ${spec} exited ${run_rc}, expected 137: ${run_err}")
  endif()
  # Restart without the kill switch: must start as expected and converge.
  run_daemon("")
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "restart after ${spec} failed (${run_rc}): ${run_err}")
  endif()
  expect_start(${expect} "${run_err}" "restart after ${spec}")
  file(READ "${report}" got)
  if(NOT got STREQUAL ref)
    message(FATAL_ERROR "report after crash at ${spec} is not byte-identical to the reference")
  endif()
endforeach()

# --- progressive chaos: repeated kills against ONE checkpoint file ----
# Every restart inherits the files the previous crash left; the daemon
# must make forward progress through a whole sequence of kills and still
# converge to the reference bytes. Each entry's restart is checked on
# the run after it. A countdown counts only its own run's passes, so
# after a resume "checkpoint.mid_append:1" hits the first save past the
# recovered checkpoint.
set(ckpt "${workdir}/progressive.ckpt")
set(report "${workdir}/progressive.json")
file(REMOVE "${ckpt}" "${ckpt}.tmp" "${ckpt}.log" "${report}")
set(expect "cold")
set(context "first progressive run")
foreach(entry
    "daemon.apply:11=cold"
    "checkpoint.pre_rename:1=cold"
    "checkpoint.mid_append:2=resume"
    "daemon.apply:37=resume"
    "checkpoint.post_append:1=resume"
    "checkpoint.pre_fsync:2=resume"
    "checkpoint.mid_append:1=resume"
    "daemon.apply:5=resume")
  string(REPLACE "=" ";" fields "${entry}")
  list(GET fields 0 spec)
  run_daemon("${spec}")
  if(NOT run_rc EQUAL 137)
    message(FATAL_ERROR "progressive kill ${spec} exited ${run_rc}, expected 137: ${run_err}")
  endif()
  expect_start(${expect} "${run_err}" "${context}")
  list(GET fields 1 expect)
  set(context "restart after progressive kill ${spec}")
endforeach()
run_daemon("")
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "final progressive run failed (${run_rc}): ${run_err}")
endif()
expect_start(${expect} "${run_err}" "${context}")
file(READ "${report}" got)
if(NOT got STREQUAL ref)
  message(FATAL_ERROR "progressive-chaos report is not byte-identical to the reference")
endif()

# --- torn checkpoint: recovery must reject garbage and cold-start -----
set(ckpt "${workdir}/torn.ckpt")
set(report "${workdir}/torn.json")
file(WRITE "${ckpt}" "CNCP1 but actually torn garbage")
execute_process(
  COMMAND "${CNAUDITD}" --input "${data}" --oneshot
          --checkpoint "${ckpt}" --checkpoint-every 8 --out "${report}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "run with torn checkpoint failed (${rc}): ${out}${err}")
endif()
string(FIND "${err}" "checkpoint rejected" found)
if(found EQUAL -1)
  message(FATAL_ERROR "torn checkpoint was not reported as rejected: ${err}")
endif()
file(READ "${report}" got)
if(NOT got STREQUAL ref)
  message(FATAL_ERROR "report after torn checkpoint diverged from the reference")
endif()

file(REMOVE_RECURSE "${workdir}")
