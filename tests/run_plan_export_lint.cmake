# Zoo plan-export lint: for every benchmark scenario, export the lowered
# execution plan (f32 and, where requested, int8-quantized), then run the full
# analysis driver over it — the plan verifier plus the dtype-propagation and
# peak-memory dataflow analyses must all come back clean (exit 0). This is the
# ctest twin of the CI lint job: real planner output, not hand-written
# fixtures, goes through the same pipeline as the seeded-defect files.
#
# Each f32 export of a GOLDEN_BENCHMARKS entry must also equal
# GOLDEN_DIR/export_b<n>.plan byte for byte, so a planner change that moves
# any step, value, buffer or solver name shows here. And every f32 config's
# `--dump-plan` output must contain its exported plan text verbatim: the
# dump prints the plan through the same renderer that writes the file.
# Regenerate a golden with `gmorph_cli --export-plan <cfg> <file>` from a
# config holding `benchmark = <n>` and `seed = 42`, with GMORPH_TUNE_DB
# unset (the f32 solver names then come from shape heuristics alone).
#
# Invoked by ctest as:
#   cmake -DCLI=<gmorph_cli> -DOUT_DIR=<dir> -DBENCHMARKS=1;2;...
#         [-DQUANTIZED=ON] [-DGOLDEN_DIR=<dir> -DGOLDEN_BENCHMARKS=1;4;...]
#         -P run_plan_export_lint.cmake

if(NOT DEFINED BENCHMARKS)
  set(BENCHMARKS 1)
endif()

foreach(bench ${BENCHMARKS})
  set(modes "f32")
  if(QUANTIZED)
    list(APPEND modes "int8")
  endif()
  foreach(mode ${modes})
    set(CFG "${OUT_DIR}/export_b${bench}_${mode}.cfg")
    set(PLAN "${OUT_DIR}/export_b${bench}_${mode}.plan")
    file(REMOVE "${CFG}" "${PLAN}")
    file(WRITE "${CFG}" "benchmark = ${bench}\nseed = 42\n")
    if(mode STREQUAL "int8")
      file(APPEND "${CFG}" "export_quantized = true\n")
    endif()

    execute_process(
      COMMAND "${CLI}" "--export-plan" "${CFG}" "${PLAN}"
      RESULT_VARIABLE export_rc
      OUTPUT_VARIABLE export_out
      ERROR_VARIABLE export_err)
    if(NOT export_rc EQUAL 0)
      message(FATAL_ERROR "--export-plan B${bench} ${mode} exited ${export_rc}:\n${export_out}\n${export_err}")
    endif()
    if(NOT EXISTS "${PLAN}")
      message(FATAL_ERROR "--export-plan B${bench} ${mode} wrote no plan file")
    endif()
    if(mode STREQUAL "int8" AND NOT export_out MATCHES "\\(([0-9]+) step\\(s\\), ([1-9][0-9]*) int8\\)")
      message(FATAL_ERROR "quantized export for B${bench} carries no int8 step:\n${export_out}")
    endif()

    if(mode STREQUAL "f32")
      list(FIND GOLDEN_BENCHMARKS "${bench}" golden_at)
      if(NOT golden_at EQUAL -1)
        set(GOLDEN "${GOLDEN_DIR}/export_b${bench}.plan")
        execute_process(
          COMMAND "${CMAKE_COMMAND}" -E compare_files "${PLAN}" "${GOLDEN}"
          RESULT_VARIABLE golden_rc)
        if(NOT golden_rc EQUAL 0)
          message(FATAL_ERROR "f32 plan of B${bench} differs from ${GOLDEN}; compare with:\n"
                              "  diff ${GOLDEN} ${PLAN}")
        endif()
      endif()

      file(APPEND "${CFG}" "profile_runs = 1\n")
      execute_process(
        COMMAND "${CLI}" "--dump-plan" "${CFG}"
        RESULT_VARIABLE dump_rc
        OUTPUT_VARIABLE dump_out
        ERROR_VARIABLE dump_err)
      if(NOT dump_rc EQUAL 0)
        message(FATAL_ERROR "--dump-plan B${bench} exited ${dump_rc}:\n${dump_out}\n${dump_err}")
      endif()
      file(READ "${PLAN}" plan_text)
      string(FIND "${dump_out}" "${plan_text}" plan_at)
      if(plan_at EQUAL -1)
        message(FATAL_ERROR "--dump-plan B${bench} does not print the exported plan text:\n${dump_out}")
      endif()
    endif()

    execute_process(
      COMMAND "${CLI}" "--verify" "${PLAN}"
      RESULT_VARIABLE verify_rc
      OUTPUT_VARIABLE verify_out
      ERROR_VARIABLE verify_err)
    if(NOT verify_rc EQUAL 0)
      message(FATAL_ERROR "exported B${bench} ${mode} plan failed the lint (${verify_rc}):\n${verify_out}\n${verify_err}")
    endif()
    # The dataflow passes actually ran: the memory certifier's summary note
    # must be in the clean output.
    if(NOT verify_out MATCHES "plan\\.mem\\.summary")
      message(FATAL_ERROR "lint of B${bench} ${mode} shows no mem-certifier summary:\n${verify_out}")
    endif()
  endforeach()
endforeach()
