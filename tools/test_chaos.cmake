# CTest script: the cnauditd chaos harness.
#
# Proves the daemon's headline crash-safety invariant: SIGKILL at ANY
# point (emulated by armed CN_CRASH_AT kill points, which _exit(137)
# with no destructors — observably identical to SIGKILL), then restart
# from the last checkpoint, converges to a final report byte-identical
# to an uninterrupted run's. Kill points cover the apply path and every
# stage of the atomic checkpoint dance (before fsync, before rename,
# after rename).
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

# The pipelined mode (--threads 0) must produce the same bytes.
execute_process(
  COMMAND "${CNAUDITD}" --input "${data}" --oneshot --threads 0
          --out "${workdir}/ref_threaded.json"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "threaded reference run failed (${rc}): ${out}${err}")
endif()
file(READ "${workdir}/ref_threaded.json" ref_threaded)
if(NOT ref_threaded STREQUAL ref)
  message(FATAL_ERROR "--threads 0 report diverged from --threads 1 report")
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
expect_bad_number(--threads --threads abc)
expect_bad_number(--seal-every --seal-every abc)
expect_bad_number(--http-port --serve --http-port 70000)

# --- chaos: kill at a point, restart clean, require identical bytes ---
# Each entry is one CN_CRASH_AT spec; checkpoints every 8 blocks so
# several checkpoint cycles happen inside the small data set.
set(kill_specs
  "daemon.apply:3"
  "daemon.apply:29"
  "daemon.apply:101"
  "checkpoint.pre_fsync:1"
  "checkpoint.pre_rename:1"
  "checkpoint.pre_rename:3"
  "checkpoint.post_rename:1"
  "daemon.post_checkpoint:2"
)
foreach(spec IN LISTS kill_specs)
  set(ckpt "${workdir}/single.ckpt")
  set(report "${workdir}/single.json")
  file(REMOVE "${ckpt}" "${ckpt}.tmp" "${report}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env "CN_CRASH_AT=${spec}"
            "${CNAUDITD}" --input "${data}" --oneshot
            --checkpoint "${ckpt}" --checkpoint-every 8 --out "${report}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(rc EQUAL 0)
    # The countdown outlived the feed (expected for the deepest apply
    # kill on very small runs) — the run completing cleanly is fine,
    # but the report must still match.
    file(READ "${report}" got)
    if(NOT got STREQUAL ref)
      message(FATAL_ERROR "un-killed run under ${spec} diverged from reference")
    endif()
  else()
    if(NOT rc EQUAL 137)
      message(FATAL_ERROR "kill point ${spec} exited ${rc}, expected 137")
    endif()
    # Restart without the kill switch: must recover and converge.
    execute_process(
      COMMAND "${CNAUDITD}" --input "${data}" --oneshot
              --checkpoint "${ckpt}" --checkpoint-every 8 --out "${report}"
      RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "restart after ${spec} failed (${rc}): ${out}${err}")
    endif()
    file(READ "${report}" got)
    if(NOT got STREQUAL ref)
      message(FATAL_ERROR "report after crash at ${spec} is not byte-identical to the reference")
    endif()
  endif()
endforeach()

# --- progressive chaos: repeated kills against ONE checkpoint file ----
# Every restart inherits the previous crash's checkpoint; the daemon
# must make forward progress through a whole sequence of kills and
# still converge to the reference bytes.
set(ckpt "${workdir}/progressive.ckpt")
set(report "${workdir}/progressive.json")
file(REMOVE "${ckpt}" "${ckpt}.tmp" "${report}")
foreach(spec "daemon.apply:11" "checkpoint.pre_rename:1" "daemon.apply:37"
             "checkpoint.pre_fsync:2" "daemon.apply:5")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env "CN_CRASH_AT=${spec}"
            "${CNAUDITD}" --input "${data}" --oneshot
            --checkpoint "${ckpt}" --checkpoint-every 8 --out "${report}"
    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 137 AND NOT rc EQUAL 0)
    message(FATAL_ERROR "progressive kill ${spec} exited ${rc}, expected 137 or 0")
  endif()
endforeach()
execute_process(
  COMMAND "${CNAUDITD}" --input "${data}" --oneshot
          --checkpoint "${ckpt}" --checkpoint-every 8 --out "${report}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "final progressive run failed (${rc}): ${out}${err}")
endif()
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
