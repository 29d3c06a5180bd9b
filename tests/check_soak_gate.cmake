# Hermetic crash/resume gate for the streaming fleet service
# (DESIGN.md §17): the soak digests must be bit-identical across thread
# counts AND across a hard kill (std::_Exit right after a checkpoint
# rename) followed by --resume. The profiler's digest (DESIGN.md §13)
# must be thread-invariant too. Also exercises the sentinel's offline
# soak renderer and checks that a soak's provenance names its fault plan
# and its seed.
#
#   1. reference soak at --threads 2 --profile  -> digests D, profile P
#   2. same soak at --threads 1 --profile       -> digests == D, profile == P
#   3. same soak with --kill-after-ckpt 2       -> must exit 7
#   4. --resume from the surviving checkpoint   -> digests == D
#   5. edgestab_sentinel soak <report>          -> renders, mentions resume
#   6. clean soak promoted to a baseline, then a --chaos soak and a
#      --seed 7 soak: sentinel compare must judge each of them
#      provenance-incomparable to it (fault plan, seed)
#   7. --repeats 3                              -> 3 repeat samples in the
#      run archive, digests == D; --repeats with a checkpoint flag is
#      refused (exit 2)
#
# Expected -D variables: BENCH_EXE, SENTINEL_EXE, WORK_DIR, CACHE_DIR.
foreach(var BENCH_EXE SENTINEL_EXE WORK_DIR CACHE_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_soak_gate: ${var} not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# A geometry that exercises every tier and control path: all three
# device classes, a deadline tight enough to open breakers, moderate
# capture/delivery faults, telemetry with a 4-item window so the 7-slot
# checkpoint cadence lands mid-window.
set(common_args
  --devices 8 --shots 640 --bank 4 --scene 32
  --faults "moderate,budget,deadline_ms=24" --telemetry)
set(ckpt_file "${WORK_DIR}/soak.ckpt.json")
set(soak_dir "${WORK_DIR}")

function(run_soak out_var expect_rc)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env
      "EDGESTAB_CACHE=${CACHE_DIR}"
      "EDGESTAB_TELEMETRY_WINDOW=4"
      "${BENCH_EXE}" ${common_args} ${ARGN}
    WORKING_DIRECTORY "${soak_dir}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR
      "soak_gate: ${ARGN} exited with ${rc} (expected ${expect_rc}):\n${out}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

# Pull the four guarded digests out of a .soak.json.
function(soak_digests out_var file)
  file(READ "${file}" body)
  string(REGEX MATCH
    "\"digests\":{[^}]*}" digests "${body}")
  if(digests STREQUAL "")
    message(FATAL_ERROR "soak_gate: no digests block in ${file}")
  endif()
  set(${out_var} "${digests}" PARENT_SCOPE)
endfunction()

# Pull profile_digest out of the last run's provenance manifest.
function(profile_digest out_var)
  file(READ "${soak_dir}/bench_out/fleet_soak.meta.json" body)
  string(REGEX MATCH "\"profile_digest\":\"[0-9a-f]+\"" digest "${body}")
  if(digest STREQUAL "")
    message(FATAL_ERROR "soak_gate: no profile_digest in the manifest")
  endif()
  set(${out_var} "${digest}" PARENT_SCOPE)
endfunction()

message(STATUS "==== soak_gate: reference run (--threads 2) ====")
run_soak(out 0 --threads 2 --profile --soak-out "${WORK_DIR}/ref.soak.json")
soak_digests(ref_digests "${WORK_DIR}/ref.soak.json")
profile_digest(ref_profile)

message(STATUS "==== soak_gate: thread invariance (--threads 1) ====")
run_soak(out 0 --threads 1 --profile --soak-out "${WORK_DIR}/t1.soak.json")
soak_digests(t1_digests "${WORK_DIR}/t1.soak.json")
if(NOT t1_digests STREQUAL ref_digests)
  message(FATAL_ERROR
    "soak_gate: digests differ across thread counts:\n"
    "  threads 2: ${ref_digests}\n  threads 1: ${t1_digests}")
endif()
profile_digest(t1_profile)
if(NOT t1_profile STREQUAL ref_profile)
  message(FATAL_ERROR
    "soak_gate: profile digests differ across thread counts:\n"
    "  threads 2: ${ref_profile}\n  threads 1: ${t1_profile}")
endif()

message(STATUS "==== soak_gate: hard kill after 2 checkpoints ====")
run_soak(out 7 --threads 2
  --ckpt "${ckpt_file}" --ckpt-slots 7 --kill-after-ckpt 2)
if(NOT EXISTS "${ckpt_file}")
  message(FATAL_ERROR "soak_gate: hard kill left no checkpoint file")
endif()
if(EXISTS "${ckpt_file}.tmp")
  message(FATAL_ERROR "soak_gate: stale checkpoint tmp file after rename")
endif()

message(STATUS "==== soak_gate: resume to completion ====")
run_soak(resume_out 0 --threads 2
  --ckpt "${ckpt_file}" --ckpt-slots 7 --resume
  --soak-out "${WORK_DIR}/resumed.soak.json")
if(NOT resume_out MATCHES "resumed from")
  message(FATAL_ERROR "soak_gate: resume run did not report resuming")
endif()
soak_digests(resumed_digests "${WORK_DIR}/resumed.soak.json")
if(NOT resumed_digests STREQUAL ref_digests)
  message(FATAL_ERROR
    "soak_gate: kill/resume digests differ from the uninterrupted run:\n"
    "  reference: ${ref_digests}\n  resumed:   ${resumed_digests}")
endif()

message(STATUS "==== soak_gate: sentinel offline render ====")
execute_process(
  COMMAND "${SENTINEL_EXE}" soak "${WORK_DIR}/resumed.soak.json"
  WORKING_DIRECTORY "${WORK_DIR}"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "soak_gate: sentinel soak failed with ${rc}:\n${out}")
endif()
if(NOT out MATCHES "resumed from slot" OR NOT out MATCHES "OUTCOME")
  message(FATAL_ERROR "soak_gate: sentinel soak render incomplete:\n${out}")
endif()

message(STATUS "==== soak_gate: chaos plan and seed reach provenance ====")
# --chaos arms its plan after bench::Run has read --faults, and --seed is
# the soak's own flag, so only explicit records put them in the manifest
# and run archive. Without them a chaos soak, or a soak at another seed,
# compares as if it were the clean one.
set(prov_dir "${WORK_DIR}/provenance")
file(MAKE_DIRECTORY "${prov_dir}")
function(provenance_soak label)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "EDGESTAB_CACHE=${CACHE_DIR}"
      "${BENCH_EXE}" --devices 8 --shots 320 --bank 4 --scene 32
      --threads 2 ${ARGN}
    WORKING_DIRECTORY "${prov_dir}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "soak_gate: ${label} soak exited with ${rc}:\n${out}")
  endif()
endfunction()
# The newest soak in the archive must compare as incomparable to the
# clean baseline, for the reason `why`.
function(expect_incomparable label why)
  execute_process(
    COMMAND "${SENTINEL_EXE}" compare --bench fleet_soak
      --baseline "${prov_dir}/clean_baseline.json"
    WORKING_DIRECTORY "${prov_dir}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  if(NOT rc EQUAL 0 OR NOT out MATCHES "${why}")
    message(FATAL_ERROR
      "soak_gate: ${label} vs clean compare exited ${rc}; want exit 0 with "
      "'${why}':\n${out}")
  endif()
endfunction()
provenance_soak(clean)
file(READ "${prov_dir}/bench_out/BENCH_fleet_soak.json" baseline)
file(WRITE "${prov_dir}/clean_baseline.json" "${baseline}")
provenance_soak(chaos --chaos)
expect_incomparable(chaos "fault plan differs")
provenance_soak(seed --seed 7)
expect_incomparable("--seed 7" "seed differs")

message(STATUS "==== soak_gate: --repeats 3 ====")
# A fresh directory so its run archive holds this run's record alone.
set(soak_dir "${WORK_DIR}/repeats")
file(MAKE_DIRECTORY "${soak_dir}")
run_soak(out 0 --threads 2 --repeats 3
  --soak-out "${soak_dir}/repeats.soak.json")
soak_digests(repeat_digests "${soak_dir}/repeats.soak.json")
if(NOT repeat_digests STREQUAL ref_digests)
  message(FATAL_ERROR
    "soak_gate: --repeats 3 digests differ from the single run:\n"
    "  reference:  ${ref_digests}\n  repeats 3:  ${repeat_digests}")
endif()
file(READ "${soak_dir}/bench_out/runs.jsonl" archive)
string(REGEX MATCH "\"repeats\":\\[[^]]*\\]" samples "${archive}")
string(REGEX MATCHALL "\"wall_seconds\"" walls "${samples}")
list(LENGTH walls n_samples)
if(NOT n_samples EQUAL 3)
  message(FATAL_ERROR
    "soak_gate: --repeats 3 archived ${n_samples} repeat sample(s), "
    "want 3:\n${samples}")
endif()
run_soak(out 2 --repeats 2 --ckpt "${soak_dir}/refused.ckpt.json"
  --ckpt-slots 7)
if(NOT out MATCHES "cannot be combined")
  message(FATAL_ERROR "soak_gate: --repeats with --ckpt-slots not refused "
    "with a message:\n${out}")
endif()

message(STATUS
  "soak_gate OK — digests bit-identical across threads, repeats and "
  "kill/resume; profile digest thread-invariant")
