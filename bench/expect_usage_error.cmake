# Runs each of HARNESSES (a ;-list of binaries) with FLAG and fails unless
# every one exits 2 and prints EXPECT on stderr. Usage:
#   cmake -DHARNESSES="a;b" -DFLAG=--bogus=1 "-DEXPECT=unknown flag --bogus"
#         -P expect_usage_error.cmake
foreach(harness IN LISTS HARNESSES)
  execute_process(COMMAND "${harness}" "${FLAG}"
                  RESULT_VARIABLE code OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "${harness} ${FLAG}: exit ${code}, expected 2")
  endif()
  string(FIND "${err}" "${EXPECT}" found)
  if(found EQUAL -1)
    message(FATAL_ERROR "${harness} ${FLAG}: stderr does not say "
                        "\"${EXPECT}\":\n${err}")
  endif()
endforeach()
