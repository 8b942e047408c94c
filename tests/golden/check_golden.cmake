# Re-runs one golden cwsp_tool command and byte-compares its stdout and
# exit code with the committed report.
#
#   cmake -DTOOL=<cwsp_tool> -DARGS=<a|b|c> -DEXPECT_EXIT=<code>
#         -DGOLDEN=<name.out> -DACTUAL=<scratch file> -DWORKDIR=<repo root>
#         -P check_golden.cmake
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc STREQUAL EXPECT_EXIT)
  message(FATAL_ERROR "exit code ${rc}, golden expects ${EXPECT_EXIT}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout differs from ${GOLDEN} (got ${ACTUAL})")
endif()
